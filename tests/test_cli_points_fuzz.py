"""Random point lists through `ub` and `certify`.

Whatever the points (wrong lengths, zero vectors, repeats), the CLI must
answer with a documented exit code, print no traceback and at most one
stderr line, an `error: ` line exactly when it exits with 1.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from apolarity.cli import run  # noqa: E402

EXIT_CODES = {"ub": {0, 1, 3}, "certify": {0, 1, 2}}

points = st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=4),
                  min_size=1, max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(form=st.sampled_from(["x^2*y", "x*y*z"]),
       verb=st.sampled_from(sorted(EXIT_CODES)), pts=points,
       repeat=st.booleans(), as_json=st.booleans())
def test_random_points_answer_cleanly(form, verb, pts, repeat, as_json):
    if repeat:
        pts = pts + pts[:1]
    text = "; ".join(",".join(str(c) for c in p) for p in pts)
    argv = [verb, form, "--points", text]
    if verb == "certify":
        argv += ["--ideal", "X"]
    if as_json:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    assert code in EXIT_CODES[verb]
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert len(lines) == (1 if code == 1 else 0)
    assert all(line.startswith("error: ") for line in lines)
