"""The README's library quickstart runs, and each result it shows is what the library returns."""

from pathlib import Path

from gausshyp import MethodId

README = Path(__file__).resolve().parents[1] / "README.md"

#: The relative tolerance the README states for the values it shows: under one unit in the last place.
VALUE_RTOL = 1e-16


def _quickstart_lines():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def _check(got, shown):
    token = shown.split()[0].rstrip(":,")
    if token.startswith("MethodId."):
        assert got is MethodId[token.removeprefix("MethodId.")], (got, shown)
    elif token.startswith("~"):
        assert f"{got:.0e}" == token[1:], (got, shown)  # the estimate to the one digit shown
    else:
        want = complex(token)
        assert abs(got - want) <= VALUE_RTOL * abs(want), (got, shown)


def test_quickstart_shows_what_the_library_returns():
    namespace, checked = {}, 0
    for line in _quickstart_lines():
        code, _, shown = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)  # a statement; its comment is prose
            continue
        _check(eval(expression, namespace), shown)
        checked += 1
    assert checked == 5
