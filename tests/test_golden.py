"""Bit-exact regression against committed golden files."""

import pathlib
from fractions import Fraction

import pytest

from sklift.cli import main
from sklift.eigenforms import eigenform
from sklift.jacobi import fj_component
from sklift.lift import lift_expand
from sklift.siegel import eisenstein_expansion

GOLDEN = pathlib.Path(__file__).parent / "golden"


def read(name):
    return (GOLDEN / name).read_text()


def test_eisenstein_expansion_golden():
    E = eisenstein_expansion(11, 6)
    assert E.to_text() == read("eisenstein_w12_bound6.expansion.txt")


def test_lift_expansion_and_provenance_golden():
    f = eigenform(18, 128)
    F = lift_expand(f, 6)
    assert F.to_text() == read("lift_s18_bound6.expansion.txt")
    assert F.provenance_text() == read("lift_s18_bound6.provenance.txt")


def test_lift_builds_no_sqrt_extension(tmp_path, monkeypatch):
    # the lift evaluates every local factor in Q, so it runs with Q(sqrt p) disabled
    from sklift.arith import SqrtExt

    def disabled(self, *args):
        raise AssertionError("SqrtExt built on the lift path")

    monkeypatch.setattr(SqrtExt, "__init__", disabled)
    F = lift_expand(eigenform(18, 128), 6)
    assert F.to_text() == read("lift_s18_bound6.expansion.txt")
    assert F.provenance_text() == read("lift_s18_bound6.provenance.txt")
    assert main(["lift", "--weight", "18", "--bound", "14", "--out", str(tmp_path / "x")]) == 0


def test_fj_component_golden():
    f = eigenform(18, 128)
    F = lift_expand(f, 6)
    comp = fj_component(F, 1, Fraction(1, 2))
    assert comp.to_text() == read("lift_s18_fj_xi_half.txt")


def test_eigenform_qseries_golden():
    g = eigenform(22, 20)
    assert g.series.to_text() == read("eigenform_22_prec20.qseries.txt")


def test_fj_eisenstein_cli_golden(tmp_path):
    base = tmp_path / "fj12"
    assert main(["fj", "--weight", "12", "--S", "1", "--bound", "12", "--out", str(base)]) == 0
    for part in ("xi0", "xi1", "report"):
        got = (tmp_path / f"fj12.{part}.txt").read_bytes()
        assert got == (GOLDEN / f"fj_eisenstein_w12_bound12.{part}.txt").read_bytes(), part


@pytest.mark.parametrize("args, name", [
    (["--group", "E73"], "lfactor_E73"),
    (["--group", "Miyawaki"], "lfactor_Miyawaki"),
    (["--group", "CAP", "--n", "2"], "lfactor_CAP_n2"),
    (["--group", "SUH", "--n", "3"], "lfactor_SUH_n3"),
    (["--group", "Sp", "--n", "3"], "lfactor_Sp_n3"),
    (["--group", "SU", "--n", "2"], "lfactor_SU_n2"),
])
def test_lfactor_cli_golden(tmp_path, capsys, args, name):
    # the command prints its report, so stdout and the report file match one golden
    out = tmp_path / "r.txt"
    assert main(["lfactor", *args, "--out", str(out)]) == 0
    golden = (GOLDEN / f"{name}.report.txt").read_bytes()
    assert out.read_bytes() == golden
    assert capsys.readouterr().out.encode() == golden
