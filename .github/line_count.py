"""Report the hand-written source lines of src/rkforge, split by kind.

Usage: python .github/line_count.py   (from the root of the repo)

For each hand-written module (src/rkforge/*.py; the generated modules are
not counted) it prints the total lines and their split into docstring lines
(module, class and function docstrings, found by ast), comment-only lines,
blank lines outside docstrings, and code.  For the solver template it prints
the total.  On a row of its own, outside the hand-written total, it prints
the total lines of the generated modules (src/rkforge/generated/*.py).  It
only reports; there is no threshold.
"""
import ast
import sys
from pathlib import Path


def split(text: str) -> dict:
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = {"total": len(lines), "docstring": len(doc), "comment": 0, "blank": 0, "code": 0}
    for number, line in enumerate(lines, 1):
        if number in doc:
            continue
        stripped = line.strip()
        kind = "blank" if not stripped else "comment" if stripped.startswith("#") else "code"
        counts[kind] += 1
    return counts


def main() -> int:
    root = Path("src/rkforge")
    kinds = ("total", "docstring", "comment", "blank", "code")
    print(f"{'file':<28}" + "".join(f"{k:>10}" for k in kinds))
    sums = dict.fromkeys(kinds, 0)
    for path in sorted(root.glob("*.py")):
        counts = split(path.read_text(encoding="utf-8"))
        for k in kinds:
            sums[k] += counts[k]
        print(f"{path.name:<28}" + "".join(f"{counts[k]:>10}" for k in kinds))
    print(f"{'*.py':<28}" + "".join(f"{sums[k]:>10}" for k in kinds))
    total = sums["total"]
    for path in sorted((root / "templates").glob("*.tmpl")):
        lines = len(path.read_text(encoding="utf-8").splitlines())
        total += lines
        print(f"{'templates/' + path.name:<28}{lines:>10}")
    print(f"{'hand-written total':<28}{total:>10}")
    generated = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in (root / "generated").glob("*.py"))
    print(f"{'generated/*.py':<28}{generated:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
