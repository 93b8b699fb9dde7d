"""Print the code lines of each module under src/qmamp and their total.

A line is a code line when it holds a token other than a comment, a
newline, an indent or dedent, or a docstring: a string literal that is a
statement by itself.  A token that spans several lines (a multi-line string
inside an expression) makes each of its lines a code line.  Blank lines,
comment lines and docstrings are not counted, so the count follows the code
and not its explanation.

    python scripts/code_lines.py
"""

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qmamp"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The code lines of the Python file at `path`."""
    lines, statement = set(), []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.ENCODING or tok.type in LAYOUT - {tokenize.NEWLINE}:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            # a logical line of string literals alone is a docstring
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
