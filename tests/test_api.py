"""The public surface, which is the contract: `ocp2d.__all__` plus the
README quick tour.  What the README imports is exported, every exported
name exists, and the incomplete-gamma surface the beta = 2 layer no longer
uses has left it."""

import inspect
import pathlib
import re

import ocp2d

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SPECFUN = ["log_gamma", "reg_lower_gamma", "reg_upper_gamma",
           "log_reg_lower_gamma", "log_lower_gamma", "log_sum_exp"]


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


def test_the_surface_is_the_union_of_the_module_lists():
    # each public name is declared once, in its module's __all__; the
    # package adds only its version and the error types
    from ocp2d import edge, equilibrium, exact, harness, sampling
    errors = ["Ocp2dError", "DomainError", "StabilityError", "SingularityError",
              "NumericalError"]
    modules = [*edge.__all__, *equilibrium.__all__, *exact.__all__,
               *harness.__all__, *sampling.__all__]
    assert len(ocp2d.__all__) == len(set(ocp2d.__all__))
    assert set(ocp2d.__all__) == {"__version__", *errors, *modules}
    assert [name for name in modules if not hasattr(ocp2d, name)] == []


def test_every_exported_callable_has_a_docstring():
    assert [name for name in ocp2d.__all__
            if callable(getattr(ocp2d, name))
            and not (getattr(ocp2d, name).__doc__ or "").strip()] == []


def test_the_incomplete_gamma_surface_left_the_contract():
    assert [name for name in ocp2d.__all__ if name in SPECFUN] == []
    # the truncated-gamma integral is gone from the exact layer
    assert ocp2d.exact.__all__ == ["edge_cdf_log", "edge_pdf_log", "exact_moment",
                                   "MgfResult", "mgf_log"]


def test_specfun_still_imports_with_its_names():
    # the benchmark's traced mode imports ocp2d.specfun and wraps its __all__,
    # which names nothing: the module is an empty stub
    from ocp2d import specfun
    assert specfun.__all__ == []
    assert [name for name, value in vars(specfun).items()
            if inspect.isfunction(value) or inspect.isclass(value)] == []
