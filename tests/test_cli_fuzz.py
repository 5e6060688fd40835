"""Fuzz ``main()``: torus-action payloads exit 0 or 2, argument vectors 0, 1 or 2, never a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reidtai.cli import main

_JUNK = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)

# Small denominators keep every group, and so every modulus, small.
_FRACTION = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-5, 5), st.integers(0, 6)),
)
_TRANSLATION_ENTRY = st.one_of(
    _FRACTION,
    st.sampled_from(["1/0", "", "x", "1/2", "0.5", " 1/3 "]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)


@st.composite
def _signed_permutation(draw, n):
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def _mostly(draw, good, junk):
    """Draw from ``good`` four times in five, else from ``junk``."""
    return draw(good if draw(st.integers(0, 4)) else junk)


@st.composite
def _generator(draw, n):
    matrix = _mostly(draw, _signed_permutation(n), st.lists(st.lists(_JUNK, max_size=n + 1), max_size=n + 1))
    translation = _mostly(
        draw,
        st.lists(_FRACTION, min_size=n, max_size=n),
        st.one_of(st.lists(_TRANSLATION_ENTRY, max_size=n + 1), _JUNK),
    )
    return {"matrix": matrix, "translation": translation}


@st.composite
def _payload(draw):
    n = draw(st.integers(1, 3))
    rank = _mostly(draw, st.just(n), _JUNK)
    generators = _mostly(
        draw, st.lists(_generator(n), min_size=1, max_size=3), st.one_of(st.lists(_JUNK, max_size=2), _JUNK)
    )
    return {"rank": rank, "generators": generators}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_payload())
@example(payload={"rank": 1, "generators": [{"matrix": [[-1]], "translation": ["1/0"]}]})
def test_torus_commands_exit_0_or_2(payload, tmp_path):
    path = tmp_path / "action.json"
    path.write_text(json.dumps(payload))
    for command in ("filtration", "av-verdict"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--cap", "200", command, str(path)])
        assert code in (0, 2), (command, payload)


# Argument vectors of the subcommands that take no input file.  Values stay
# small: a bound such as --f-max 999999 only runs long.
_INT = st.integers(-3, 60).map(str)
_SMALL_INT = st.integers(-3, 6).map(str)  # lets some G(m, p, n) fit --cap 10
_TOKEN = st.one_of(
    _INT,
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-5, 12), st.integers(0, 12)),
    st.sampled_from(["1/0", "", "x", "-", "--", "0.5", "nan", "1/2,1/3", " 1/3 ", "--cap", "value-union"]),
)
_SPECTRUM = st.lists(_TOKEN, max_size=4).map(",".join)
_MODE = st.sampled_from(["value-union", "orbit-sets"])
_OPTIONS = {
    "monomial-check": {"--m": _SMALL_INT, "--p": _SMALL_INT, "--n": _SMALL_INT, "--reflection-rep": None},
    "orders-scan": {"--bound": _INT, "--mode": _MODE},
    "pair-search": {"--f-max": _INT, "--mode": _MODE},
    "multisets": {"--f-max": _INT, "--mode": _MODE},
    "same-order-screen": {"--n": _INT, "--dim": _INT},
    "simple-av-screen": {"--dim": _INT, "--bound": _INT},
    "age": {"--spectrum": _SPECTRUM},
    "rt-check": {"--spectrum": _SPECTRUM},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, value in _OPTIONS[command].items():
        repeats = draw(st.integers(0, 2)) if command == "rt-check" else _mostly(draw, st.just(1), st.just(0))
        for _ in range(repeats):
            argv.append(flag)
            if value is not None:
                argv.append(_mostly(draw, value, _TOKEN))
    argv += ["--cap", draw(st.sampled_from(["0", "-3", "10"]))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
@example(argv=["age", "--spectrum", "1/0"])
@example(argv=["monomial-check", "--m", "2", "--p", "1", "--n", "2", "--cap", "10"])
def test_subcommand_argv_exits_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed vector with exit 2
            code = exc.code
    assert code in (0, 1, 2), argv
