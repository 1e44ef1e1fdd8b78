"""Start-up: schrodg loads SciPy's compiled LAPACK/BLAS wrappers without the
``scipy.linalg`` package, and a run imports nothing that start-up did not.

Each check that looks at ``sys.modules`` runs in a fresh interpreter with one
BLAS thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schrodg
from schrodg import SpaceKind, build_cartesian_mesh, solve_global
from schrodg.assembly import assemble_global

SIX = ("zgbtrf", "zgbtrs", "zgbcon", "zgbmv", "zgetrf", "zgetrs")


def _python(code: str, cwd=None) -> str:
    """Standard output of ``python -c code`` in a fresh interpreter."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(schrodg.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_the_scipy_linalg_package_out():
    code = "import json, sys, schrodg.cli; print(json.dumps(list(sys.modules)))"
    loaded = json.loads(_python(code))
    assert "scipy.linalg" not in loaded
    assert {"scipy.linalg._flapack", "scipy.linalg._fblas"} <= set(loaded)


@pytest.mark.parametrize("schrodg_first", [True, False], ids=["schrodg first", "scipy first"])
def test_the_wrappers_are_scipys_own(schrodg_first):
    imports = ["import schrodg.linalg as s", "import scipy.linalg.lapack, scipy.linalg.blas"]
    code = "; ".join(imports if schrodg_first else imports[::-1]) + (
        "; from scipy.linalg import blas, lapack; print(all(getattr(s, f) is getattr("
        "blas if f == 'zgbmv' else lapack, f) for f in %r))" % (SIX,))
    assert _python(code).split() == ["True"]


def test_a_missing_extension_module_is_named():
    from schrodg.linalg import _scipy_linalg_extension

    with pytest.raises(ImportError, match="scipy.linalg._no_such") as exc:
        _scipy_linalg_extension("_no_such")
    assert exc.value.name == "scipy.linalg._no_such"


# verify-basis alone draws random coefficients, so it may import numpy.random and what
# numpy.random brings with it; every other experiment imports nothing new
@pytest.mark.parametrize("experiment", ["conv-h", "conv-p", "conditioning", "singular",
                                        "verify-basis"])
def test_a_run_imports_nothing_that_start_up_did_not(tmp_path, experiment):
    args = [experiment] + ([] if experiment == "verify-basis" else ["--levels", "2"])
    new = "sorted(set(sys.modules) - before)"
    code = ("import json, sys, schrodg.cli; before = set(sys.modules); "
            f"assert schrodg.cli.main({args!r}) == 0; print(json.dumps({new}))")
    imported = json.loads(_python(code, cwd=tmp_path).splitlines()[-1])
    allowed = set()
    if experiment == "verify-basis":
        allowed = set(json.loads(_python("import json, sys, schrodg.cli; before = set(sys.modules)"
                                         f"; import numpy.random; print(json.dumps({new}))")))
        assert "numpy.random" in allowed
    assert set(imported) <= allowed


def test_solve_global_is_scipys_dense_lu_solve(smooth_problem):
    import scipy.linalg

    mesh = build_cartesian_mesh(schrodg.SpaceTimeDomain(0.0, 1.0, 1.0), 3, 4)
    space = SpaceKind.trefftz(2)
    M, rhs, _ = assemble_global(mesh, space, smooth_problem[1])
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(M.T), rhs, trans=1)
    coeffs = solve_global(mesh, space, smooth_problem[1]).coeffs
    assert np.array_equal(coeffs, x.reshape(coeffs.shape))


def test_solve_global_rejects_a_non_finite_matrix(monkeypatch, smooth_problem):
    import schrodg.assembly

    assemble = schrodg.assembly.assemble_global

    def with_nan(*args, **kwargs):
        M, rhs, dofs = assemble(*args, **kwargs)
        M[1, 2] = np.nan
        return M, rhs, dofs

    monkeypatch.setattr(schrodg.assembly, "assemble_global", with_nan)
    mesh = build_cartesian_mesh(schrodg.SpaceTimeDomain(0.0, 1.0, 1.0), 2, 2)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_global(mesh, SpaceKind.trefftz(1), smooth_problem[1])
