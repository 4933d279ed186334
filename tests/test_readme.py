"""README's checkable claims: its oracle list and its Library tour."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def oracle_names():
    """The names of the top-level ``def slow_*`` functions under tests/."""
    names = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("slow_"):
                names.add(node.name)
    return names


def test_the_readme_names_exactly_the_slow_oracles():
    named = set(re.findall(r"\bslow_\w+", README))
    defined = oracle_names()
    assert named == defined, (
        f"defined but not in README: {sorted(defined - named)}; "
        f"in README but not defined: {sorted(named - defined)}"
    )


def test_the_library_tour_gives_what_its_comments_say():
    """Each tour line ``expression   # literal`` evaluates to that literal."""
    tour = README.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    claims = []
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        if expression.strip() and comment:
            claims.append((eval(expression, namespace), ast.literal_eval(comment.strip())))
    assert len(claims) == 2
    (table, expected_table), (verdict, expected_verdict) = claims
    assert dict(table) == expected_table == {(0,) * 6: 1, (1,) * 6: 1}
    assert verdict == expected_verdict == (True, 2)
