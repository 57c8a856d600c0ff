"""The public surface: what the README imports is exported, and every
exported name exists."""

import pathlib
import re

import ocp2d

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour_imports() -> list[str]:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    block = re.search(r"from ocp2d import \(([^)]*)\)", tour).group(1)
    return [name.strip() for name in block.split(",") if name.strip()]


def test_quick_tour_names_are_exported():
    names = _quick_tour_imports()
    assert "left_rate" in names and "gumbel_check" in names
    assert [name for name in names if name not in ocp2d.__all__] == []


def test_every_exported_name_resolves():
    assert [name for name in ocp2d.__all__ if not hasattr(ocp2d, name)] == []


def test_every_exported_callable_has_a_docstring():
    assert [name for name in ocp2d.__all__
            if callable(getattr(ocp2d, name))
            and not (getattr(ocp2d, name).__doc__ or "").strip()] == []
