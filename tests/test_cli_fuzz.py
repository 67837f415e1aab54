"""Every CLI invocation ends with exit code 0, 1 or 2, never a traceback, never ``nan``.

Hypothesis draws argv for the five subcommands with small sizes and odd
``--at`` text; each draw runs in-process through :func:`hypergen.cli.main`,
where a traceback would be an exception escaping ``main``.  A NaN ``--at``
is refused, so no command may print ``nan``.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypergen.cli import main

SIZE = st.integers(-2, 24).map(str) | st.sampled_from(["x", "1.5", "٣", "+4", ""])
VALID_TRIPLE = st.integers(0, 24).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N), st.integers(0, N)))
TRIPLE = VALID_TRIPLE.map(lambda t: [str(x) for x in t]) | st.lists(SIZE, min_size=3, max_size=3)

ODD_AT = [
    "nan", "-nan", "inf", "+inf", "-inf", "1e400", "-1e400", "-0", "0", "1/0", "2/-3",
    "1_000", "٣", "٣/٤", "１２", "1/٣", "0x10", " 1", "", "1e-400", "-1000", "709.8", "-745.2",
    "1e308", "-1e308", "1.7976931348623157e308",
    "7" * 5000 + "/3", "1/" + "9" * 5000,
]
LONG_RATIONAL = st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**60), 10**60), st.integers(1, 10**60))
AT = (
    st.sampled_from(ODD_AT)
    | st.integers(-(10**6), 10**6).map(str)
    | LONG_RATIONAL
    | st.floats().map(repr)
    | st.floats(-3000, 3000).map(repr)
    | st.text(max_size=6)
)


def flag(name, values):
    return values.map(lambda v: f"--{name}={v}")


ARGV = st.one_of(
    st.builds(lambda t, f: ["pgf", *t, f], TRIPLE, flag("format", st.sampled_from(["coeffs", "json", "latex", "tex"]))),
    st.builds(
        lambda t, at, kind: ["eval", *t, at, kind],
        TRIPLE,
        flag("at", AT),
        flag("kind", st.sampled_from(["pgf", "mgf", "cf", "cgf", "x"])),
    ),
    st.builds(lambda t, r: ["moments", *t, r], TRIPLE, flag("max-r", st.integers(-2, 60))),
    st.builds(lambda m: ["verify", m, "--jobs=1"], flag("n-max", st.integers(-1, 3))),
    st.builds(lambda N: ["regions", N], st.integers(-2, 6).map(str)),
)


@settings(max_examples=300, deadline=None)
@given(ARGV)
# inputs that once escaped main or exited with the wrong code
@example(["eval", "10", "8", "5", "--at=-1000", "--kind=cgf"])
@example(["eval", "10", "8", "5", "--at=-inf", "--kind=cgf"])
@example(["eval", "10", "5", "5", "--at=nan", "--kind=mgf"])
@example(["eval", "4", "2", "3", "--at=" + "7" * 5000 + "/3"])
@example(["eval", "5", "5", "3", "--at=1e308", "--kind=cgf"])
@example(["eval", "5", "5", "3", "--at=1e308", "--kind=mgf"])
@example(["eval", "10", "8", "5", "--at=-1e308", "--kind=cgf"])
@example(["eval", "10", "8", "5", "--at=-1e308", "--kind=mgf"])
@example(["eval", "5", "0", "3", "--at=inf", "--kind=mgf"])
@example(["eval", "5", "3", "0", "--at=-inf", "--kind=cgf"])
@example(["eval", "0", "0", "0", "--at=inf", "--kind=cf"])
def test_cli_exit_code_is_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "nan" not in out.getvalue().lower().split(), argv
