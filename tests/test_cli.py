import os
import subprocess
import sys

import pytest

import sklift

from sklift.cli import main
from sklift.qseries import QSeries


def test_eigenform_writes_normalized_series(tmp_path):
    out = tmp_path / "f18.txt"
    assert main(["eigenform", "--weight", "18", "--prec", "30", "--out", str(out)]) == 0
    f = QSeries.from_text(out.read_text())
    assert f.a(1) == 1 and f.weight == 18 and f.truncation == 30


def test_eigenform_parity_gate(tmp_path, capsys):
    out = tmp_path / "x.txt"
    code = main(["eigenform", "--weight", "12", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "k=6 is even" in err
    assert not out.exists()


def test_eigenform_table_format(tmp_path):
    out = tmp_path / "t.txt"
    assert main(["eigenform", "--weight", "22", "--prec", "8", "--format", "table-text", "--out", str(out)]) == 0
    assert "coefficient" in out.read_text()


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


def test_lfactor_unknown_group(tmp_path):
    assert main(["lfactor", "--group", "SO10", "--out", str(tmp_path / "x.txt")]) == 1


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


def test_determinism_across_runs_and_threads(tmp_path):
    outputs = []
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        base = str(tmp_path / f"run{tag}")
        assert main(["lift", "--weight", "18", "--bound", "4", "--threads", threads, "--out", base]) == 0
        with open(base + ".expansion.txt", "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("primes", ["4", "1", "0", "2,9", "2,-3", ","])
def test_lift_rejects_non_prime_hecke_primes(tmp_path, capsys, primes):
    code = main(["lift", "--weight", "18", "--bound", "4", "--primes", primes, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "primes" in capsys.readouterr().err
    assert not (tmp_path / "x.expansion.txt").exists()


def test_lift_computes_each_read_coefficient_once(tmp_path, monkeypatch):
    # the written expansion and the Hecke check read one memo
    import sklift.lift as lift

    computed, read = [], set()
    real_coeff, real_lookup = lift.lift_coeff, lift.LiftExpansion._lookup

    def counting_coeff(source, T, provenance=None):
        computed.append(T)
        return real_coeff(source, T, provenance)

    def recording_lookup(self, red):
        if red.is_positive_definite():
            read.add(red)
        return real_lookup(self, red)

    monkeypatch.setattr(lift, "lift_coeff", counting_coeff)
    monkeypatch.setattr(lift.LiftExpansion, "_lookup", recording_lookup)
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 0
    assert len(computed) == len(set(computed)) == len(read)
    assert set(computed) == read


def test_lift_evaluates_each_local_class_once(tmp_path, monkeypatch):
    # the eigenform keeps each local factor's value at its Satake parameters
    import sklift.lift as lift

    computed, evaluated = [], []
    real_coeff, real_eval = lift.lift_coeff, lift.SymLaurent.eval_satake

    def counting_coeff(source, T, provenance=None):
        computed.append(T)
        return real_coeff(source, T, provenance)

    def counting_eval(self, source):
        evaluated.append(self.p)
        return real_eval(self, source)

    monkeypatch.setattr(lift, "lift_coeff", counting_coeff)
    monkeypatch.setattr(lift.SymLaurent, "eval_satake", counting_eval)
    assert main(["lift", "--weight", "18", "--bound", "6", "--out", str(tmp_path / "x")]) == 0
    per_index = [ld for T in computed for ld in lift.local_data(T)[2].values()]
    assert len(evaluated) == len(set(per_index)) < len(per_index)


def test_concurrent_lifts_share_fresh_disk_cache(tmp_path):
    # two processes fill one cache directory at once; each must read back a whole file
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sklift.__file__)),
               SKLIFT_CACHE_DIR=str(tmp_path / "cache"))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "sklift.cli", "lift", "--weight", "18", "--bound", "8",
             "--out", str(tmp_path / f"lift{run}")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for run in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert "warning" not in err
    for suffix in (".expansion.txt", ".provenance.txt", ".report.txt"):
        assert (tmp_path / f"lift0{suffix}").read_bytes() == (tmp_path / f"lift1{suffix}").read_bytes()
