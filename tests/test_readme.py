"""README's library quick tour runs as written and prints what its comments
say, so a documented value cannot go stale unseen."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    """The first python block after the quick-tour heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_prints_what_its_comments_say():
    """Each one-line `print(...)  # value` prints value; a comment may go on
    past the value after a colon, as the witness line's does."""
    code = _quick_tour()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    calls = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    checked = 0
    for call, shown in zip(calls, printed):
        if "#" in call:
            comment = call.split("#", 1)[1].strip()
            assert comment == shown or comment.startswith(shown + ": "), (call, shown)
            checked += 1
    assert checked >= 4
