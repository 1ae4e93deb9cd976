import hashlib
import time
from fractions import Fraction

import pytest

from definitions import format_flag_file
from flagorbits.cli import main
from flagorbits.geometry import specialize_basis
from flagorbits.smoothness import sweep, sweep_records
from test_smoothness import SWEEP_8_SHA256


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "2143")
    assert code == 0
    assert "rationally_singular" in out
    assert "2143" in out


def test_classify_structured(capsys):
    code, out, _ = run(capsys, "classify", "21435", "--format", "structured")
    assert code == 0
    assert out.strip() == (
        "perm=21435 m=5 r=4 codim=2 deg_w0=4 "
        "verdict=not_applicable conjugates=fail patterns=2143q"
    )


def test_classify_not_involution(capsys):
    code, _, err = run(capsys, "classify", "2341")
    assert code == 65
    assert "malformed" in err


def test_classify_garbage(capsys):
    code, _, err = run(capsys, "classify", "zzz")
    assert code == 65


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "sweep")[0] == 64  # missing --m
    assert run(capsys)[0] == 64


def test_sweep_stdout_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "m8.txt"
    code, out, _ = run(capsys, "sweep", "--m", "8", "--out", str(out_path))
    assert code == 0
    assert "pattern-singular-degree-smooth=none" in out.splitlines()
    data = out_path.read_bytes()
    assert data == ("\n".join(sweep_records(sweep(8))) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == SWEEP_8_SHA256


def test_sweep_coherence_exit_code(monkeypatch, capsys):
    # no real size exhibits a discrepancy, so force one to exercise the path
    import flagorbits.cli as cli

    real_sweep = cli.sweep

    def broken(m):
        rep = real_sweep(m)
        object.__setattr__(rep, "pattern_singular_degree_smooth", [rep.rows[0].perm])
        return rep

    monkeypatch.setattr(cli, "sweep", broken)
    assert run(capsys, "sweep", "--m", "4")[0] == 2
    assert run(capsys, "sweep", "--m", "5")[0] == 0  # odd sizes never gate


def test_sweep_has_no_thread_knob(monkeypatch, capsys):
    monkeypatch.setenv("ORBIT_THREADS", "abc")
    assert run(capsys, "sweep", "--m", "4")[0] == 0
    assert run(capsys, "sweep", "--m", "4", "--threads", "2")[0] == 64


def test_sweep_guard(capsys):
    code, _, err = run(capsys, "sweep", "--m", "13")
    assert code == 66
    assert "too large" in err


def test_sweep_needs_positive_m(capsys):
    for m in ("-1", "0"):
        code, _, err = run(capsys, "sweep", "--m", m)
        assert code == 65
        assert err == f"flagorbits: malformed input: sweep needs m >= 1, got {m}\n"


def test_classify_guard(capsys):
    code, _, err = run(capsys, "classify", ",".join(str(k) for k in range(1, 17)))
    assert code == 66
    assert err == "flagorbits: too large: classify guard is m <= 12, got 16\n"


def test_verify_cases(capsys):
    code, out, _ = run(capsys, "verify-cases")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks pass"
    for item in "abcde":
        assert any(line.startswith(f"({item}) pass ") for line in lines)
    assert not any(" FAIL " in line for line in lines)


def test_verify_cases_failure_exits_1(capsys, monkeypatch):
    import flagorbits.cli as cli
    from flagorbits.smoothness import CaseResult

    failing = [CaseResult("e", "stubbed check", False)]
    monkeypatch.setattr(cli, "verify_known_cases", lambda: failing)
    code, out, _ = run(capsys, "verify-cases")
    assert code == 1
    assert out.splitlines() == ["(e) FAIL stubbed check", "CHECKS FAILED"]


def test_graph_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "graph", "2143")
    assert code == 0
    assert out.startswith("graph interval {")
    assert '"2143" -- "3412"' in out or '"3412" -- "4321"' in out
    path = tmp_path / "g.dot"
    code, out2, _ = run(capsys, "graph", "2143", "--dot", str(path))
    assert code == 0 and out2 == ""
    assert path.read_text() == out


def test_graph_guard(capsys):
    # w0 of S_16 has a one-vertex interval, but the guard refuses m > 12
    # before S_16 is enumerated
    code, out, err = run(capsys, "graph", ",".join(str(k) for k in range(16, 0, -1)))
    assert code == 66 and out == ""
    assert err == "flagorbits: too large: interval guard is m <= 12, got 16\n"


def test_slice_output(capsys):
    code, out, _ = run(capsys, "slice", "3412")
    assert code == 0
    assert "slice for 3412 (n=2, r=1)" in out
    assert "a14 weight 2e1" in out
    assert "a34 weight e1-e2" in out
    assert "var=a14" in out and "claim=pass" in out
    assert "v=4231" in out


def test_slice_identity_empty_ideal(capsys):
    code, out, _ = run(capsys, "slice", "1234")
    assert code == 0
    assert "(empty" in out


def test_slice_odd_size(capsys):
    code, _, err = run(capsys, "slice", "21435")
    assert code == 64
    assert "even size" in err


def test_slice_guard(capsys):
    code, out, err = run(capsys, "slice", ",".join(str(k) for k in range(14, 0, -1)))
    assert code == 66
    assert out == ""  # refused before the header is printed
    assert err == "flagorbits: too large: slice guard is m <= 12, got 14\n"


def test_orbit_of_flag(tmp_path, capsys):
    flag = specialize_basis(2, {(3, 4): Fraction(1)})
    path = tmp_path / "flag.txt"
    path.write_text(format_flag_file(flag))
    code, out, _ = run(capsys, "orbit-of-flag", str(path))
    assert code == 0
    assert out.strip() == "3412"


def test_orbit_of_flag_missing_file(capsys):
    code, _, err = run(capsys, "orbit-of-flag", "/nonexistent/file.txt")
    assert code == 65


def test_orbit_of_flag_malformed(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 0\n")
    code, _, err = run(capsys, "orbit-of-flag", str(path))
    assert code == 65
    assert "malformed" in err


def test_orbit_of_flag_exponent_exits_fast(tmp_path, capsys):
    # Fraction("1e20000000") alone takes tens of seconds; the token is refused first
    path = tmp_path / "flag.txt"
    path.write_text("2\n1e20000000 0\n0 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "orbit-of-flag", str(path))
    assert time.perf_counter() - start < 1
    assert code == 65 and out == ""
    assert err == "flagorbits: malformed input: bad rational in row: '1e20000000 0'\n"


def test_orbit_of_flag_guard_exits_fast(tmp_path, capsys):
    m = 65
    path = tmp_path / "flag.txt"
    path.write_text(f"{m}\n" + "".join(" ".join(["1/3"] * m) + "\n" for _ in range(m)))
    start = time.perf_counter()
    code, out, err = run(capsys, "orbit-of-flag", str(path))
    assert time.perf_counter() - start < 1
    assert code == 66 and out == ""
    assert err == "flagorbits: too large: flag guard is m <= 64, got 65\n"


def test_orbit_of_flag_not_utf8(tmp_path, capsys):
    path = tmp_path / "flag.txt"
    path.write_bytes(b"2\n1 0\n0 \xff\n")
    code, out, err = run(capsys, "orbit-of-flag", str(path))
    assert code == 65 and out == ""
    assert err.startswith("flagorbits: malformed input: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_orbit_of_flag_degenerate(tmp_path, capsys):
    path = tmp_path / "flag.txt"
    path.write_text("2\n1 2\n2 4\n")
    code, _, err = run(capsys, "orbit-of-flag", str(path))
    assert code == 65
    assert err == "flagorbits: malformed input: flag rows are linearly dependent\n"


def test_orbit_of_flag_size_zero(tmp_path, capsys):
    path = tmp_path / "flag.txt"
    path.write_text("0\n")
    code, out, err = run(capsys, "orbit-of-flag", str(path))
    assert code == 65 and out == ""
    assert err == "flagorbits: malformed input: a flag needs m >= 1 rows\n"
