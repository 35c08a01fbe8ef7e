"""Public names: what the demos import exists, and every __all__ resolves;
the package imports numpy alone."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bayesdiv
from bayesdiv import hyperprior, posterior, specfun

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = ["bayesdiv"] + [
    f"bayesdiv.{info.name}" for info in pkgutil.iter_modules(bayesdiv.__path__)
]


def test_importing_the_package_and_its_cli_loads_no_scipy():
    # the special functions are numpy kernels; scipy serves only the tests,
    # as an oracle.  A fresh interpreter sees every module the import pulls in
    src = str(Path(bayesdiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, bayesdiv, bayesdiv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def _bayesdiv_imports(path):
    """(module, name) for every ``from bayesdiv[.x] import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "bayesdiv"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _bayesdiv_imports(path)
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# --- the input contract -------------------------------------------------------

_TABLE = bayesdiv.build_table([3, 0, 1], [1, 2, 0], 4)
_BAD_VALUES = {"zero": 0.0, "negative": -1.0, "nan": float("nan"),
               "inf": float("inf"), "empty": np.array([])}
# name -> call of the checked argument v; K=4 wherever K is taken
_CHECKED = {
    "specfun.trigamma": lambda v: specfun.trigamma(v),
    "specfun.delta_psi[z1]": lambda v: specfun.delta_psi(v, 1.0),
    "specfun.delta_psi[z2]": lambda v: specfun.delta_psi(1.0, v),
    "posterior.HyperParams[alpha]": lambda v: posterior.HyperParams(v, 1.0, 4),
    "posterior.HyperParams[beta]": lambda v: posterior.HyperParams(1.0, v, 4),
    "posterior.prior_mean_entropy": lambda v: posterior.prior_mean_entropy(v, 4),
    "posterior.prior_mean_crossentropy": lambda v: posterior.prior_mean_crossentropy(v, 4),
    "posterior.log_evidence": lambda v: posterior.log_evidence(_TABLE, v),
    "posterior.log_evidence_grid": lambda v: posterior.log_evidence_grid(_TABLE, v),
    "posterior.log_evidence_gradient": lambda v: posterior.log_evidence_gradient(_TABLE, v),
    "posterior.entropy_grid": lambda v: posterior.entropy_grid(_TABLE, v),
    **{f"posterior.{fn}[{side}]": (
        lambda v, fn=fn, side=side: getattr(posterior, fn)(
            _TABLE, *((v, [1.0]) if side == "alphas" else ([1.0], v))))
       for fn in ("dkl_grid", "dkl_squared_grid", "kl_moment_grids", "hellinger_sq_grid")
       for side in ("alphas", "betas")},
    "hyperprior.prior_entropy_slope": lambda v: hyperprior.prior_entropy_slope(v, 4),
    "hyperprior.bhattacharyya_factor_log_slope":
        lambda v: hyperprior.bhattacharyya_factor_log_slope(v, 4),
    "hyperprior.log_weight_kl[alpha]": lambda v: hyperprior.log_weight_kl(v, 1.0, 4),
    "hyperprior.log_weight_kl[beta]": lambda v: hyperprior.log_weight_kl(1.0, v, 4),
    "hyperprior.kl_hinge[alpha]": lambda v: hyperprior.kl_hinge(v, [1.0, 2.0, 3.0, 4.0], 4),
    "hyperprior.kl_hinge[beta]": lambda v: hyperprior.kl_hinge([1.0], v, 4),
    "hyperprior.log_weight_hellinger[alpha]":
        lambda v: hyperprior.log_weight_hellinger(v, 1.0, 4),
    "hyperprior.log_weight_hellinger[beta]":
        lambda v: hyperprior.log_weight_hellinger(1.0, v, 4),
}
# name -> call with K = 1, for the functions whose K must be >= 2
_CHECKED_K = {
    "posterior.HyperParams": lambda: posterior.HyperParams(1.0, 1.0, 1),
    "hyperprior.prior_entropy_slope": lambda: hyperprior.prior_entropy_slope(1.0, 1),
    "hyperprior.bhattacharyya_factor_log_slope":
        lambda: hyperprior.bhattacharyya_factor_log_slope(1.0, 1),
    "hyperprior.log_weight_kl": lambda: hyperprior.log_weight_kl(1.0, 1.0, 1),
    "hyperprior.kl_hinge": lambda: hyperprior.kl_hinge([1.0], [1.0, 2.0, 3.0, 4.0], 1),
    "hyperprior.log_weight_hellinger": lambda: hyperprior.log_weight_hellinger(1.0, 1.0, 1),
}


@pytest.mark.parametrize("value", list(_BAD_VALUES.values()), ids=list(_BAD_VALUES))
@pytest.mark.parametrize("call", list(_CHECKED.values()), ids=list(_CHECKED))
def test_every_checking_function_rejects_bad_concentrations(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call", list(_CHECKED_K.values()), ids=list(_CHECKED_K))
def test_every_function_taking_k_rejects_k_one(call):
    with pytest.raises(ValueError):
        call()
