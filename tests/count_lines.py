"""Count the lines of each module of src/homtwist.

For each module this prints its lines, as ``wc -l`` counts them, and its code
lines: the lines that hold a token other than a comment, a newline or an
indent, and are not part of a docstring (a string that is the first statement
of a module, class or function body).  The totals come last.

With no argument it counts src/homtwist of the repository that holds this
file; an argument names another package directory:

    python tests/count_lines.py [PACKAGE_DIR]
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "homtwist"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source):
    """(lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv):
    package = pathlib.Path(argv[0]) if argv else PACKAGE
    total_lines = total_code = 0
    for path in sorted(package.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
