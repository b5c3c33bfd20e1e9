import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

import sklift

from sklift.cli import main
from sklift.qseries import QSeries


def test_eigenform_writes_normalized_series(tmp_path):
    out = tmp_path / "f18.txt"
    assert main(["eigenform", "--weight", "18", "--prec", "30", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:3] == ["sklift qseries v1", "weight 18", "truncation 30"]
    assert lines[4] == "1:1/1" and len(lines) == 3 + 31


def test_eigenform_parity_gate(tmp_path, capsys):
    out = tmp_path / "x.txt"
    code = main(["eigenform", "--weight", "12", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "k=6 is even" in err
    assert not out.exists()


def test_lift_weight20_parity_error(tmp_path, capsys):
    code = main(["lift", "--weight", "20", "--bound", "4", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "k=10 is even" in capsys.readouterr().err


def test_lift_bound_zero_rejected(tmp_path, capsys):
    code = main(["lift", "--weight", "18", "--bound", "0", "--out", str(tmp_path / "x")])
    assert code == 1


def test_lift_end_to_end(tmp_path, capsys):
    base = str(tmp_path / "lift18")
    code = main(["lift", "--weight", "18", "--bound", "5", "--threads", "1", "--out", base])
    assert code == 0
    output = capsys.readouterr().out
    assert "check maass-relations : PASS" in output
    assert "check hecke-eigen p=2 : PASS" in output
    assert os.path.exists(base + ".expansion.txt")
    assert os.path.exists(base + ".provenance.txt")
    assert os.path.exists(base + ".report.txt")


def test_lfactor_commands(tmp_path, capsys):
    for args, expect in (
        (["lfactor", "--group", "Sp", "--n", "2"], "degree 9"),
        (["lfactor", "--group", "E73"], "degree 56"),
        (["lfactor", "--group", "Miyawaki"], "degree 12"),
        (["lfactor", "--group", "CAP", "--n", "2"], "degree 9"),
    ):
        out = tmp_path / ("r_" + args[2] + ".txt")
        assert main(args + ["--out", str(out)]) == 0
        assert expect in out.read_text()


def test_passing_lfactor_reads_nothing_back(tmp_path, monkeypatch):
    # both sides of each identity are compared as packed ints
    import sklift.lfactor as lf

    reads = []
    real = lf.EulerFactor._read_back

    def counting(self):
        reads.append(self.grid)
        return real(self)

    monkeypatch.setattr(lf.EulerFactor, "_read_back", counting)
    for args in (["E73"], ["Miyawaki"], ["Sp", "--n", "3"], ["SU", "--n", "2"], ["SUH", "--n", "3"]):
        assert main(["lfactor", "--group", *args, "--out", str(tmp_path / "r.txt")]) == 0, args
    assert reads == []


@pytest.mark.parametrize("group", ["E73", "SU", "Sp", "SUH"])
def test_lfactor_wrong_root_fails(tmp_path, monkeypatch, capsys, group):
    # a factored side with one root's chi flipped shares the grid but not the ints
    import sklift.lfactor as lf
    from sklift.lfactor import SymMonomial, _product_of_linears, standard_satake

    def wrong_rhs(tag, n=1):
        roots = list(standard_satake(tag, n))
        first = roots[0]
        roots[0] = SymMonomial(first.a, first.b, first.half, 1 - first.chi)
        return _product_of_linears(roots)

    monkeypatch.setattr(lf, "factored_rhs", wrong_rhs)
    out = tmp_path / "r.txt"
    assert main(["lfactor", "--group", group, "--out", str(out)]) == 2
    assert ": FAIL" in capsys.readouterr().out
    assert ": FAIL" in out.read_text()


def _lfactor_fails(tmp_path, capsys, group, *args):
    out = tmp_path / "r.txt"
    assert main(["lfactor", "--group", group, *args, "--out", str(out)]) == 2
    assert ": FAIL" in capsys.readouterr().out
    return out.read_text()


def test_lfactor_cap_wrong_shift_fails(tmp_path, monkeypatch, capsys):
    # pi_f |det|^(n+3/2-j) in place of |det|^(n+1/2-j)
    import sklift.lfactor as lf

    real = lf.cap_induced_multiset
    monkeypatch.setattr(lf, "cap_induced_multiset", lambda n: real(n, [2 * (n - j) + 3 for j in range(1, n + 1)]))
    assert "mismatch" in _lfactor_fails(tmp_path, capsys, "CAP", "--n", "2")


def test_lfactor_miyawaki_wrong_parameter_fails(tmp_path, monkeypatch, capsys):
    # the 12-element parameter set with one p^(-3) root's chi flipped
    import sklift.lfactor as lf

    real = lf.SatakeMultiset

    def tampered(entries):
        *rest, last = entries
        return real([*rest, lf.SymMonomial(last.a, last.b, last.half, 1 - last.chi)])

    monkeypatch.setattr(lf, "SatakeMultiset", tampered)
    assert "euler-factor identity: False" in _lfactor_fails(tmp_path, capsys, "Miyawaki")


def test_lfactor_arthur_wrong_type_fails(tmp_path, monkeypatch, capsys):
    # every Sym^n called symplectic makes rho_f (x) Sym16 orthogonal
    import sklift.lfactor as lf

    monkeypatch.setattr(lf, "_sym_type", lambda n: "Sp")
    assert "rho_f (x) Sym16: dim 34, type SO" in _lfactor_fails(tmp_path, capsys, "E73")


def test_lfactor_e73_wrong_arthur_summand_fails(tmp_path, monkeypatch, capsys):
    # rho_f (x) Sym1 in place of Sym3(rho_f): the same dimension 4, other roots
    import sklift.lfactor as lf

    table = {"rho_f (x) Sym1": (1, 1), "rho_f (x) Sym16": (1, 16), "rho_f (x) Sym8": (1, 8)}
    monkeypatch.setattr(lf, "_E73_ARTHUR", table)
    text = _lfactor_fails(tmp_path, capsys, "E73")
    assert "check standard-lfactor E73 n=1 : FAIL" in text and "degree 56" in text
    assert "rho_f (x) Sym1: dim 4, type SO" in text
    assert lf.standard_satake("E73").euler_factor() != lf.factored_rhs("E73")


def test_lfactor_unknown_group(tmp_path):
    assert main(["lfactor", "--group", "SO10", "--out", str(tmp_path / "x.txt")]) == 1


def test_memory_exhaustion_is_a_one_line_usage_error(tmp_path, capsys):
    # 10^16 coefficients fit in no address space: the first list fails to
    # allocate at once, and nothing is written
    out = tmp_path / "f.txt"
    assert main(["eigenform", "--weight", "18", "--prec", "10000000000000000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert "out of memory" in err and "--prec" in err
    assert not out.exists()


# each command with the suffix of the first file it writes under --out
_FIRST_OUTPUT = [
    (["eigenform", "--weight", "18", "--prec", "10"], ""),
    (["lift", "--weight", "18", "--bound", "4"], ".expansion.txt"),
    (["lfactor", "--group", "Sp"], ""),
    (["fj", "--weight", "12", "--bound", "4"], ".xi0.txt"),
]


@pytest.mark.parametrize("args, suffix", _FIRST_OUTPUT, ids=[args[0] for args, _ in _FIRST_OUTPUT])
@pytest.mark.parametrize("shape", ["parent-is-a-file", "target-is-a-directory"])
def test_unwritable_out_is_a_one_line_usage_error(tmp_path, capsys, args, suffix, shape):
    if shape == "parent-is-a-file":
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "r")
    else:
        out = str(tmp_path / "r")
        os.mkdir(out + suffix)
    assert main([*args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert "--out" in err and out + suffix in err


# each command that writes several files, with the suffixes of all of them
_ALL_OUTPUTS = [
    (["lift", "--weight", "18", "--bound", "4"], (".expansion.txt", ".provenance.txt", ".report.txt")),
    (["fj", "--weight", "12", "--bound", "4"], (".xi0.txt", ".xi1.txt", ".report.txt")),
]


@pytest.mark.parametrize("args, suffixes", _ALL_OUTPUTS, ids=[args[0] for args, _ in _ALL_OUTPUTS])
def test_failed_last_write_leaves_no_file_of_the_run(tmp_path, capsys, args, suffixes):
    # the report is written last; when it cannot be, the files written
    # before it go too, and the directory in its way stays
    out = str(tmp_path / "p")
    os.mkdir(out + suffixes[-1])
    assert main([*args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert "--out" in err and out + suffixes[-1] in err
    assert sorted(os.listdir(tmp_path)) == ["p" + suffixes[-1]]
    assert os.path.isdir(out + suffixes[-1])


def _edge_grid():
    for w in (-2, 0, 1, 17, 18, 19, 20, 24, 30):
        yield ["eigenform", "--weight", str(w), "--prec", "4"]
    yield ["eigenform", "--weight", "22", "--prec", "3"]
    for w, bound in [("18", b) for b in "0123"] + [("12", "2"), ("20", "2"), ("24", "2")]:
        yield ["lift", "--weight", w, "--bound", bound]
    for primes in ("1", "4", "2,2", "13"):
        yield ["lift", "--weight", "18", "--bound", "2", "--primes", primes]
    for (source, w), S, bound in product((("eisenstein", "12"), ("lift", "18")), "12", "012"):
        yield ["fj", "--weight", w, "--S", S, "--bound", bound, "--source", source]
    yield ["fj", "--weight", "11", "--bound", "2"]
    for group, n in product(("Sp", "SU", "SUH", "E73", "CAP", "Miyawaki"), "012"):
        yield ["lfactor", "--group", group, "--n", n]


def test_edge_values_exit_without_traceback(tmp_path, capsys):
    # every command crossed with edge values, in process and in series: each
    # ends in a documented exit code, never in an exception
    for i, args in enumerate(_edge_grid()):
        assert main([*args, "--out", str(tmp_path / f"o{i}")]) in (0, 1, 2), args
        assert "Traceback" not in capsys.readouterr().err, args


def test_fj_eisenstein(tmp_path, capsys):
    base = str(tmp_path / "fj12")
    code = main(["fj", "--weight", "12", "--S", "1", "--bound", "12", "--out", base])
    assert code == 0
    assert "fj-eisenstein-pattern : PASS" in capsys.readouterr().out
    assert os.path.exists(base + ".xi0.txt")
    assert os.path.exists(base + ".xi1.txt")


def test_fj_scope_gate(tmp_path, capsys):
    code = main(["fj", "--weight", "12", "--S", "3", "--bound", "5", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "S=3 unsupported" in capsys.readouterr().err


def test_fj_on_lift_has_zero_constant_terms(tmp_path):
    base = str(tmp_path / "fjlift")
    code = main(["fj", "--weight", "18", "--source", "lift", "--bound", "8", "--out", base])
    assert code == 0
    xi0 = (tmp_path / "fjlift.xi0.txt").read_text()
    assert "\n0 : 0/1" in xi0


def test_usage_error_exit_code(tmp_path):
    assert main(["lift", "--weight", "18"]) == 1  # missing --bound
    assert main(["lift", "--weight", "18", "--bound", "4", "--threads", "-1", "--out", str(tmp_path / "x")]) == 1
    assert main(["no-such-command"]) == 1
    # E7,3 and Miyawaki have no rank parameter
    for group, n in (("E73", "2"), ("Miyawaki", "4"), ("E73", "0")):
        out = tmp_path / f"{group}-{n}.txt"
        assert main(["lfactor", "--group", group, "--n", n, "--out", str(out)]) == 1
        assert not out.exists()


def test_determinism_across_runs_and_threads(tmp_path):
    outputs = []
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        base = str(tmp_path / f"run{tag}")
        assert main(["lift", "--weight", "18", "--bound", "4", "--threads", threads, "--out", base]) == 0
        with open(base + ".expansion.txt", "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("args, flag", [
    (["lift", "--weight", "18", "--bound", "-1"], "--bound"),
    (["fj", "--weight", "12", "--bound", "-1"], "--bound"),
    (["fj", "--weight", "12", "--bound", "4", "--S", "0"], "--S"),
    (["eigenform", "--weight", "18", "--prec", "-1"], "--prec"),
    (["lfactor", "--group", "Sp", "--n", "0"], "--n"),
    (["fj", "--weight", "12", "--bound", "4", "--threads", "-1"], "--threads"),
    (["lift", "--weight", "18", "--bound", "4", "--primes", "2,x"], "--primes"),
    (["lift", "--weight", "18", "--bound", "1"], "--bound"),
    (["eigenform", "--weight", "18", "--prec", "1"], "--prec"),
    (["eigenform", "--weight", "18", "--prec", "3"], "--prec"),
    # each coset needs a second nonzero Cohen pattern value to test its constant
    (["fj", "--weight", "12", "--bound", "0"], "--bound"),
    (["fj", "--weight", "12", "--bound", "1"], "--bound"),
    # at --bound 0 the lift's FJ components hold only the singular (S, 0, 0)
    (["fj", "--weight", "18", "--source", "lift", "--S", "2", "--bound", "0"], "--bound"),
    (["fj", "--weight", "18", "--source", "lift", "--S", "3", "--bound", "0"], "--bound"),
])
def test_out_of_range_option_names_its_flag(tmp_path, capsys, args, flag):
    assert main(args + ["--out", str(tmp_path / "x")]) == 1
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["eigenform", "--weight", "26", "--prec", "200"],
    ["lift", "--weight", "26", "--bound", "4"],
])
def test_failed_hecke_eigen_check_is_a_check_failure(tmp_path, monkeypatch, capsys, args):
    # a corrupted a(7) breaks the T_p eigen-ratio: exit 2, and nothing is written
    import sklift.eigenforms as E

    real = E.cusp_space_basis

    def corrupted(two_k, truncation):
        (f,) = real(two_k, truncation)
        coeffs = list(f.coeffs)
        coeffs[7] += 1
        return [QSeries(f.weight, f.truncation, coeffs)]

    monkeypatch.setattr(E, "cusp_space_basis", corrupted)
    assert main(args + ["--out", str(tmp_path / "x")]) == 2
    assert "mathematical check failure" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("primes", ["4", "1", "0", "2,9", "2,-3", ",", "2,2", "3,2,3"])
def test_lift_rejects_non_prime_hecke_primes(tmp_path, capsys, primes):
    code = main(["lift", "--weight", "18", "--bound", "4", "--primes", primes, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "primes" in capsys.readouterr().err
    assert not (tmp_path / "x.expansion.txt").exists()


def test_lift_sizes_the_eigenform_for_its_hecke_primes(tmp_path, capsys):
    # T(131) at bound 2 reads a(131), past the truncation 128 the bound alone asks for
    code = main(["lift", "--weight", "18", "--bound", "2", "--primes", "131", "--out", str(tmp_path / "x")])
    assert code == 0
    assert "check hecke-eigen p=131 : PASS" in capsys.readouterr().out


@pytest.mark.parametrize("bound, truncation", [(14, 128), (30, 180)])
def test_lift_eigenform_truncation(tmp_path, monkeypatch, bound, truncation):
    # the Hecke primes 2 and 3 ask for no more than max(128, 6 * bound)
    import sklift.eigenforms as E

    real, seen = E.eigenform, []

    def recording(two_k, trunc):
        seen.append(trunc)
        return real(two_k, trunc)

    monkeypatch.setattr(E, "eigenform", recording)
    args = ["lift", "--weight", "18", "--bound", str(bound), "--primes", "2,3", "--out", str(tmp_path / "x")]
    assert main(args) == 0
    assert seen == [truncation]


def test_lift_builds_one_expansion(tmp_path, monkeypatch):
    # the files, the Phi and Maass checks and the Hecke check's wider reads
    # share one LiftExpansion, whose bound is raised for the Hecke check
    import sklift.lift as lift

    bounds = []
    real = lift.LiftExpansion.__init__

    def recording(self, source, trace_bound):
        bounds.append(trace_bound)
        real(self, source, trace_bound)

    monkeypatch.setattr(lift.LiftExpansion, "__init__", recording)
    assert main(["lift", "--weight", "18", "--bound", "6", "--primes", "2,3", "--out", str(tmp_path / "x")]) == 0
    assert bounds == [6]


def test_lift_computes_each_read_coefficient_once(tmp_path, monkeypatch):
    # the written expansion and the Hecke check read one memo, and a lift
    # coefficient depends on T only through D_T and content(T): one
    # lift_coeff per (D_T, content) class among the positive definite reads,
    # at the first read of the class
    import sklift.lift as lift

    computed, read = [], []
    real_coeff, real_lookup = lift.lift_coeff, lift.LiftExpansion._lookup

    def counting_coeff(source, T, provenance=None):
        computed.append(T)
        return real_coeff(source, T, provenance)

    def recording_lookup(self, red):
        if red.is_positive_definite():
            read.append(red)
        return real_lookup(self, red)

    monkeypatch.setattr(lift, "lift_coeff", counting_coeff)
    monkeypatch.setattr(lift.LiftExpansion, "_lookup", recording_lookup)
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 0
    first = {}  # (D_T, content) -> the first reduced index read in that class
    for T in read:
        first.setdefault((T.disc, T.content), T)
    assert len(computed) == len({(T.disc, T.content) for T in read})
    assert computed == list(first.values())
    assert len(first) < len(set(read))  # some classes hold several reduced indices


def test_lift_reduces_each_read_of_a_non_reduced_index_once(tmp_path, monkeypatch):
    # an index of reduced shape is read as it is; every other read runs
    # reduce_index once, with no memo between reads
    import sklift.siegel as siegel

    reads, reduced = [], []
    real_reduce, real_coefficient = siegel.reduce_index, siegel.SiegelExpansion.coefficient

    def recording_reduce(T):
        reduced.append(T)
        return real_reduce(T)

    def recording_coefficient(self, T):
        reads.append(T)
        return real_coefficient(self, T)

    monkeypatch.setattr(siegel, "reduce_index", recording_reduce)
    monkeypatch.setattr(siegel.SiegelExpansion, "coefficient", recording_coefficient)
    assert main(["lift", "--weight", "18", "--bound", "14", "--out", str(tmp_path / "x")]) == 0
    assert reduced == [T for T in reads if not T.is_reduced()]
    assert len(reduced) == 880 and len(reads) == 3880


def test_lift_evaluates_each_local_class_once(tmp_path, monkeypatch):
    # the eigenform keeps each local factor's value at its Satake parameters
    import sklift.lift as lift

    computed, evaluated = [], []
    real_coeff, real_eval = lift.lift_coeff, lift._local_factor

    def counting_coeff(source, T, provenance=None):
        computed.append(T)
        return real_coeff(source, T, provenance)

    def counting_eval(source, ld):
        evaluated.append(ld.p)
        return real_eval(source, ld)

    monkeypatch.setattr(lift, "lift_coeff", counting_coeff)
    monkeypatch.setattr(lift, "_local_factor", counting_eval)
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 0
    per_index = [ld for T in computed for ld in lift.local_data(T)[2].values()]
    assert len(evaluated) == len(set(per_index)) < len(per_index)


def test_lift_vanishing_lift_is_a_check_failure(tmp_path, monkeypatch, capsys):
    # the nonzero check: an all-zero lift is rejected before anything is written
    import sklift.lift as lift

    monkeypatch.setattr(lift, "lift_coeff", lambda source, T, provenance=None: Fraction(0))
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 2
    assert "vanished identically" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_lift_phi_fails_on_a_singular_coefficient(tmp_path, monkeypatch):
    # A(0,0,1) = 1 makes Phi F = q, so the expansion is not cuspidal
    import sklift.lift as lift
    from sklift.siegel import FourierIndex

    real = lift.lift_expand

    def tampered(source, trace_bound):
        F = real(source, trace_bound)
        F.table[FourierIndex(0, 0, 1)] = Fraction(1)
        return F

    monkeypatch.setattr(lift, "lift_expand", tampered)
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 2
    report = (tmp_path / "x.report.txt").read_text()
    assert "check phi-annihilated : FAIL" in report
    assert "check maass-relations : PASS" in report


def test_lift_maass_fails_on_a_tampered_coefficient(tmp_path, monkeypatch):
    # A(2,2,2) + 1 breaks A(2,2,2) = A(4,2,1) + 2^k A(1,1,1) inside the written bound
    import sklift.lift as lift
    from sklift.siegel import FourierIndex, enumerate_reduced

    # the expansion runs lift_coeff once per (D_T, content) class; (2,2,2) is
    # alone in its class (12, 2), so the tamper reaches it (a reduced index
    # of discriminant D has n + m <= D)
    assert [T for T in enumerate_reduced(12, False) if (T.disc, T.content) == (12, 2)] == [FourierIndex(2, 2, 2)]
    real_coeff = lift.lift_coeff

    def tampered_coeff(source, T, provenance=None):
        value = real_coeff(source, T, provenance)
        return value + 1 if T == FourierIndex(2, 2, 2) else value

    monkeypatch.setattr(lift, "lift_coeff", tampered_coeff)
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 2
    report = (tmp_path / "x.report.txt").read_text()
    assert "check maass-relations : FAIL (exponent None," in report
    assert "check phi-annihilated : PASS" in report


def test_lift_hecke_fails_on_a_tampered_shared_class(tmp_path, monkeypatch):
    # (1,1,6) and (2,1,3) share the class D_T = 23, content 1, so the memo
    # hands both the tampered value: the Maass relation, which relates
    # indices of one class, still holds, and T(2) and T(3) break, each at
    # one of the two indices
    import sklift.lift as lift
    from sklift.siegel import FourierIndex, enumerate_reduced

    shared = [T for T in enumerate_reduced(23, False) if (T.disc, T.content) == (23, 1)]
    assert shared == [FourierIndex(1, 1, 6), FourierIndex(2, 1, 3)]
    real_coeff = lift.lift_coeff

    def tampered_coeff(source, T, provenance=None):
        value = real_coeff(source, T, provenance)
        return value + 1 if (T.disc, T.content) == (23, 1) else value

    monkeypatch.setattr(lift, "lift_coeff", tampered_coeff)
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 2
    report = (tmp_path / "x.report.txt").read_text()
    assert "check maass-relations : PASS" in report
    assert "check hecke-eigen p=2 : FAIL (image not proportional at FourierIndex(n=1, r=1, m=6)" in report
    assert "check hecke-eigen p=3 : FAIL (image not proportional at FourierIndex(n=2, r=1, m=3)" in report


def test_fj_reconstruction_fails_on_a_tampered_component(tmp_path, monkeypatch):
    # one value of the xi = 1/2 component no longer matches A(1, 1, 2)
    import sklift.jacobi as jacobi

    real = jacobi.fj_component

    def tampered(F, S, xi):
        comp = real(F, S, xi)
        if xi:
            comp.coeffs[7] += 1
        return comp

    monkeypatch.setattr(jacobi, "fj_component", tampered)
    assert main(["fj", "--weight", "12", "--bound", "6", "--out", str(tmp_path / "x")]) == 2
    assert "check fj-reconstruction S=1 : FAIL" in (tmp_path / "x.report.txt").read_text()


def test_eigenform_ramanujan_gate_failure_writes_nothing(tmp_path, monkeypatch, capsys):
    # a(2) = 10^9 breaks a(2)^2 <= 4 * 2^17 before any T_p check runs
    import sklift.eigenforms as E

    real = E.cusp_space_basis

    def bad(two_k, truncation):
        (f,) = real(two_k, truncation)
        coeffs = list(f.coeffs)
        coeffs[2] = 10**9
        return [QSeries(f.weight, f.truncation, coeffs)]

    monkeypatch.setattr(E, "cusp_space_basis", bad)
    assert main(["eigenform", "--weight", "18", "--prec", "30", "--out", str(tmp_path / "x")]) == 2
    assert "Ramanujan gate failed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_lift_ramanujan_gate_failure_writes_nothing(tmp_path, monkeypatch, capsys):
    # a(2) = 10^9 breaks a(p)^2 <= 4 p^(2k-1); no such Eigenform can be built
    import sklift.eigenforms as E
    from sklift.eigenforms import Eigenform, eigenform

    def bad(two_k, truncation):
        real = eigenform(two_k, truncation)
        coeffs = list(real.series.coeffs)
        coeffs[2] = 10**9
        return Eigenform(real.k_half, QSeries(two_k, real.truncation, coeffs))

    monkeypatch.setattr(E, "eigenform", bad)
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 2
    assert "Ramanujan gate failed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_lift_ignores_cache_dir_variable(tmp_path):
    # the local polynomials are recomputed in every process; nothing is persisted
    cache = tmp_path / "cache"
    cache.mkdir()
    src = os.path.dirname(os.path.dirname(sklift.__file__))
    base = {k: v for k, v in os.environ.items() if k != "SKLIFT_CACHE_DIR"}
    for tag, extra in (("plain", {}), ("cached", {"SKLIFT_CACHE_DIR": str(cache)})):
        subprocess.run(
            [sys.executable, "-m", "sklift.cli", "lift", "--weight", "18", "--bound", "6",
             "--out", str(tmp_path / tag)],
            env=dict(base, PYTHONPATH=src, **extra), stdout=subprocess.DEVNULL, check=True, timeout=120,
        )
    assert not list(cache.iterdir())
    for suffix in (".expansion.txt", ".provenance.txt", ".report.txt"):
        assert (tmp_path / f"plain{suffix}").read_bytes() == (tmp_path / f"cached{suffix}").read_bytes()


def test_fj_eisenstein_computes_only_read_coefficients(tmp_path, monkeypatch):
    # the index-1 components read (1, 0, N), (1, 1, N) for N <= 40 and the
    # rank-1 orbit of (0, 0, 1): 81 reduced indices, each computed once
    import sklift.siegel as siegel

    made, rank2 = [], []
    real_expansion, real_arith = siegel.EisensteinExpansion, siegel.eisenstein_coeff_arithmetic

    def recording(k, trace_bound):
        made.append(real_expansion(k, trace_bound))
        return made[-1]

    def counting(k, T):
        rank2.append(T)
        return real_arith(k, T)

    monkeypatch.setattr(siegel, "EisensteinExpansion", recording)
    monkeypatch.setattr(siegel, "eisenstein_coeff_arithmetic", counting)
    assert main(["fj", "--weight", "12", "--S", "1", "--bound", "40", "--out", str(tmp_path / "x")]) == 0
    assert len(made) == 1 and len(made[0].table) <= 81
    assert len(rank2) == len(set(rank2)) == sum(1 for T in made[0].table if T.is_positive_definite())


def test_fj_builds_each_component_once(tmp_path, monkeypatch):
    # the two index-1 components are built once and shared by the files, the
    # reconstruction and the pattern check: 81 reads build them, and the
    # reconstruction reads the 691 indices (1, r, N) with N <= 40 once more
    import sklift.jacobi as jacobi
    import sklift.siegel as siegel

    built, reads = [], []
    real_component, real_coefficient = jacobi.fj_component, siegel.SiegelExpansion.coefficient

    def building(F, S, xi):
        built.append(xi)
        return real_component(F, S, xi)

    def reading(self, T):
        reads.append(T)
        return real_coefficient(self, T)

    monkeypatch.setattr(jacobi, "fj_component", building)
    monkeypatch.setattr(siegel.SiegelExpansion, "coefficient", reading)
    assert main(["fj", "--weight", "12", "--S", "1", "--bound", "40", "--out", str(tmp_path / "x")]) == 0
    assert built == [0, Fraction(1, 2)]
    assert len(reads) == 772


def test_fj_lift_smallest_bound_checks_positive_definite_indices(tmp_path, capsys):
    # the smallest bound the lift source accepts reads positive definite indices (2, r, 1)
    assert main(["fj", "--weight", "18", "--source", "lift", "--S", "2", "--bound", "1",
                 "--out", str(tmp_path / "x")]) == 0
    assert "check fj-reconstruction S=2 : PASS (5 checked)" in capsys.readouterr().out


class _Sized(Exception):
    """Stops a run once the eigenform's truncation is known; ``main`` does not catch it."""


@pytest.mark.parametrize("args, truncation", [
    (["--bound", "10"], 128),
    (["--S", "2", "--bound", "6"], 128),
    (["--S", "12871", "--bound", "1"], 12872),  # (12871, 1, 1) has D_T = 3 * 131^2 and reads a(131)
])
def test_fj_lift_eigenform_truncation(tmp_path, monkeypatch, args, truncation):
    # every index read has trace <= bound + S, and so has every a(p) it reads
    import sklift.eigenforms as E

    seen = []

    def recording(two_k, trunc):
        seen.append(trunc)
        raise _Sized

    monkeypatch.setattr(E, "eigenform", recording)
    with pytest.raises(_Sized):
        main(["fj", "--weight", "18", "--source", "lift", *args, "--out", str(tmp_path / "x")])
    assert seen == [truncation]


def test_fj_lift_guards(tmp_path, monkeypatch, capsys):
    import sklift.lift as lift

    # a trace bound with no positive definite index is a usage error
    assert main(["fj", "--weight", "18", "--source", "lift", "--bound", "0", "--out", str(tmp_path / "a")]) == 1
    assert "--bound" in capsys.readouterr().err
    # every coefficient read is 0: a mathematical failure, and no component is written
    monkeypatch.setattr(lift, "lift_coeff", lambda source, T, provenance=None: Fraction(0))
    assert main(["fj", "--weight", "18", "--source", "lift", "--bound", "6", "--out", str(tmp_path / "b")]) == 2
    assert "vanished identically" in capsys.readouterr().err
    assert not list(tmp_path.glob("b.*"))


# reports the command's exit code, the sklift modules loaded, and whether the
# command (not the interpreter's start-up) loaded dataclasses
_REPORT_MODULES = (
    "import json, sys\n"
    "preloaded = 'dataclasses' in sys.modules\n"
    "from sklift.cli import main\n"
    "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "new = 'dataclasses' in sys.modules and not preloaded\n"
    "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('sklift.')), new]))\n"
)


@pytest.mark.parametrize("args, layers", [
    ([], []),
    (["eigenform", "--weight", "18", "--prec", "20"], ["arith", "eigenforms", "qseries"]),
    (["lift", "--weight", "18", "--bound", "4"], ["arith", "eigenforms", "lift", "qseries", "siegel"]),
    (["fj", "--weight", "12", "--bound", "4"], ["arith", "jacobi", "siegel"]),
    (["fj", "--weight", "18", "--source", "lift", "--bound", "4"],
     ["arith", "eigenforms", "jacobi", "lift", "qseries", "siegel"]),
    (["lfactor", "--group", "Sp"], ["lfactor"]),
])
def test_each_command_loads_only_its_layers(tmp_path, args, layers):
    # a fresh process imports the layers its command runs, and no dataclasses
    src = os.path.dirname(os.path.dirname(sklift.__file__))
    argv = args + ["--out", str(tmp_path / "x")] if args else []
    res = subprocess.run(
        [sys.executable, "-c", _REPORT_MODULES, *argv],
        env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    rc, loaded, dataclasses_loaded = json.loads(res.stdout.splitlines()[-1])
    assert rc == 0, res.stderr
    assert loaded == sorted(f"sklift.{name}" for name in ["cli", *layers])
    assert not dataclasses_loaded


def _readme_command_lines():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("sklift ")]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_line_runs(tmp_path, argv):
    # each documented command parses and passes, with its --out moved under tmp_path
    out = argv.index("--out") + 1
    argv = [*argv[:out], str(tmp_path / argv[out]), *argv[out + 1:]]
    assert main(argv) == 0


def test_readme_command_lines_cover_every_command():
    assert {argv[0] for argv in _readme_command_lines()} == {"eigenform", "lift", "lfactor", "fj"}
