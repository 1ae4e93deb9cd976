"""One input rule per argument kind: malformed input raises a FlagOrbitsError.

The Python half drives every callable in `flagorbits.__all__`, plus the
unexported names that the benchmark calls, reading each parameter's kind
from its annotation: a callable added later with a kind this file does not
know fails here until it is given one.  The CLI half runs every subcommand
through `cli.main` with malformed argv or a malformed flag file; each exits
64, 65 or 66 and raises nothing.
"""

import contextlib
import inspect
import io

import pytest
from hypothesis import example, given, settings, strategies as st

import flagorbits
from flagorbits.cli import build_parser, main
from flagorbits.errors import FlagOrbitsError
from flagorbits.geometry import slice_ideal
from flagorbits.patterns import EVEN_FIXED_BETWEEN
from flagorbits.smoothness import classify, sweep

# Outside __all__, but called by bench/ on outside input.
BENCH_NAMES = {"classify": classify, "slice_ideal": slice_ideal, "sweep": sweep}

# Names whose Perm arguments range over all of S_m, not only its involutions.
ALL_PERMUTATIONS = {"bruhat_leq"}


def _public_callables():
    names = {}
    for name in flagorbits.__all__:
        obj = getattr(flagorbits, name)
        if inspect.isfunction(obj) or inspect.isclass(obj) and not issubclass(obj, Exception):
            names[name] = obj
    return {**names, **BENCH_NAMES}


CALLABLES = _public_callables()

# One well-formed value per annotation; together they make a valid call
# (an involution of S_2 and n = 1 agree for slice_ideal).
VALID = {
    "Perm": (2, 1),
    "int": 1,
    "str": "21",
    "str | None": None,
    "frozenset[Perm]": frozenset({(2, 1)}),
}

NON_ITERABLE = st.sampled_from([None, 5, 2.5, True, object()])
NON_INT = st.one_of(st.floats(), st.booleans(), st.text(max_size=2), st.none())
INT_ENTRIES = st.lists(st.integers(-2, 8), max_size=7).map(tuple)


def _is_perm(p):
    return sorted(p) == list(range(1, len(p) + 1))


def _names_a_perm(text):
    parts = text.split(",") if "," in text else list(text)
    return all(parts) and _is_perm([int(x) for x in parts])


def _is_involution(p):
    return all(p[v - 1] == i for i, v in enumerate(p, start=1))


NON_PERM = st.one_of(
    NON_ITERABLE,
    INT_ENTRIES.filter(lambda p: not p or not _is_perm(p)),  # () and non-bijections
    st.lists(st.one_of(st.integers(1, 6), NON_INT), min_size=1, max_size=6)
    .filter(lambda xs: any(type(x) is not int for x in xs))
    .map(tuple),
    st.text(min_size=1, max_size=6),  # entries that are str, digits included
)
NON_INVOLUTION = (
    st.integers(3, 7)
    .flatmap(lambda m: st.permutations(range(1, m + 1)))
    .map(tuple)
    .filter(lambda p: not _is_involution(p))
)
# Text with no digit cannot name a permutation, so it is malformed whatever
# else it holds; digit strings that are not a bijection are malformed too.
NO_DIGIT_TEXT = st.text(max_size=8).filter(lambda s: not any(c.isdigit() for c in s))
NON_PERM_TEXT = st.one_of(
    NO_DIGIT_TEXT,
    st.text("0123456789,", min_size=1, max_size=9).filter(lambda s: not _names_a_perm(s)),
)
SIZE = st.one_of(
    st.integers(max_value=0),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.just([4]),
)


def _mixed_widths():
    widths = st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True)
    return widths.map(lambda ws: frozenset(tuple(range(w, 0, -1)) for w in ws))


def malformed(kind, name):
    """A strategy of values that are malformed for a parameter of this kind of this name."""
    if kind == "Perm":
        return NON_PERM if name in ALL_PERMUTATIONS else st.one_of(NON_PERM, NON_INVOLUTION)
    if kind == "int":
        return SIZE
    if kind == "str":
        non_str = st.one_of(st.none(), st.integers(), st.binary(max_size=4), st.just(["2", "1"]))
        return st.one_of(NON_PERM_TEXT, non_str)
    if kind == "str | None":
        unknown = st.text(max_size=4).filter(lambda q: q != EVEN_FIXED_BETWEEN)
        return st.one_of(unknown, st.integers())
    if kind == "frozenset[Perm]":
        return st.one_of(
            NON_ITERABLE,
            st.just(frozenset()),
            _mixed_widths(),
            st.frozensets(st.one_of(NON_PERM, NON_INVOLUTION), min_size=1, max_size=3),
            st.just(iter([(2, 1)])),  # an iterator is not a collection
        )
    raise AssertionError(f"{name}: no input rule for a parameter annotated {kind!r}")


def _parameters(fn):
    return [(p.name, p.annotation) for p in inspect.signature(fn).parameters.values()]


@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_valid_arguments_are_accepted(name):
    # so that a refusal below comes from the malformed argument alone
    CALLABLES[name](*(VALID[kind] for _, kind in _parameters(CALLABLES[name])))


@pytest.mark.parametrize("name", sorted(CALLABLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_input_raises_only_package_errors(name, data):
    fn = CALLABLES[name]
    params = _parameters(fn)
    at = data.draw(st.integers(0, len(params) - 1), label="argument")
    args = [VALID[kind] for _, kind in params]
    args[at] = data.draw(malformed(params[at][1], name), label=params[at][0])
    with pytest.raises(FlagOrbitsError):
        fn(*args)


def test_every_subcommand_is_driven():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(CLI_CASES)


def _exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


ARG_TEXT = st.one_of(NON_PERM_TEXT, NON_INVOLUTION.map(lambda p: ",".join(map(str, p))))
M_TEXT = st.one_of(
    st.integers(max_value=0).map(str),
    st.integers(13, 10**6).map(str),  # the size guard, before any work
    NO_DIGIT_TEXT,
    st.sampled_from(["2.5", "True", "0x4", "1e3"]),
)
# argv lists of each subcommand; "--" keeps a drawn argument such as "-h" positional
CLI_CASES = {
    "classify": st.one_of(
        ARG_TEXT.map(lambda s: ["classify", "--", s]),
        st.just(["classify", "2143", "--format", "bogus"]),
    ),
    "sweep": st.one_of(M_TEXT.map(lambda s: ["sweep", f"--m={s}"]), st.just(["sweep"])),
    "verify-cases": NO_DIGIT_TEXT.map(lambda s: ["verify-cases", "x" + s]),
    "graph": ARG_TEXT.map(lambda s: ["graph", "--", s]),
    "slice": st.one_of(ARG_TEXT.map(lambda s: ["slice", "--", s]), st.just(["slice", "1"])),
    "orbit-of-flag": st.just(["orbit-of-flag"]),  # the file cases are below
}


@pytest.mark.parametrize("command", sorted(CLI_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_malformed_argv_exits_64_65_or_66(command, data):
    argv = data.draw(CLI_CASES[command], label="argv")
    code, err = _exit_code(argv)
    assert code in (64, 65, 66), (argv, code)
    assert err.strip(), argv


def _no_digit_bytes(raw):
    try:
        return not any(c.isdigit() for c in raw.decode("utf-8"))
    except UnicodeDecodeError:
        return True


@settings(max_examples=60, deadline=None)
@given(raw=st.binary(max_size=40).filter(_no_digit_bytes))
@example(raw=b"\xff\xfe")
@example(raw=b"2\n1 0\n2 0\n")  # dependent rows
@example(raw=b"2\n1 0\n0\n")  # short row
@example(raw=b"2\n1 0 1\n0 1 0\n")  # long rows
@example(raw=b"3\n1 0 0\n")  # missing rows
@example(raw=b"0\n")
@example(raw=b"1\n1/0\n")
@example(raw=b"65\n" + b"1\n" * 65)
def test_malformed_flag_file_exits_65_or_66(raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "flag.txt"
    path.write_bytes(raw)
    code, err = _exit_code(["orbit-of-flag", str(path)])
    assert code in (65, 66), (raw, code)
    assert err.strip()
