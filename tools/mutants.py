"""Mutation check: every mutant of the solver below must make its tests fail.

    python tools/mutants.py

Each entry of MUTANTS is a name, a file of the repository, an exact old text that
occurs in that file exactly once, the new text, and the pytest selection (node ids)
that must fail once the old text is replaced by the new.  The package and its tests
(``src``, ``tests``, ``pyproject.toml``) are copied into a temporary directory.  There
the unmutated copy must first pass every selection; then each mutant in turn is
written into the copy, its selection runs with ``-x`` in a fresh process with one
BLAS/OpenMP thread and no bytecode cache, and the file is restored.  A mutant whose
selection passes has survived.

The exit code is 1 when an old text is not found exactly once (so a refactor that
moves the code has to update its entry), when the unmutated copy fails, or when a
mutant survives; it is 0 otherwise.  A surviving mutant is not to be deleted from the
list: it asks for a test that kills it, or for an argument that it is equivalent to
the original.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINALG, ASSEMBLY = "src/schrodg/linalg.py", "src/schrodg/assembly.py"
BASIS, QUADRATURE = "src/schrodg/basis.py", "src/schrodg/quadrature.py"
NORMS, SOLUTIONS = "src/schrodg/norms.py", "src/schrodg/solutions.py"
BAND_BLOCK = "tests/test_assembly.py::test_band_slab_matrix_is_the_global_diagonal_block"
SCREEN = "tests/test_assembly.py::test_plane_wave_screen_keeps_each_decision"
MARCH_GLOBAL = "tests/test_assembly.py::test_marching_equals_global_oracle"
SERIES_TABLES = "tests/test_solutions.py::test_series_tables_match_a_long_double_reference"
OWN_SPACE_ABOVE_CAP = "tests/test_assembly.py::test_own_space_is_reproduced_above_the_global_cap"
# the time-like terms of the walk: the plus norm's averages, then the jumps in place
AVERAGES = ("            if with_plus:  # the averages, before the jumps overwrite v1 and g1\n"
            "                mean = sides[2][:, :m, 1:]\n"
            "                sums[1] += 0.25 * (_wsums(Wx, np.add(g1, g2, out=mean)) / alpha\n"
            "                                   + _wsums(Wx, np.add(v1, v2, out=mean)) / beta)\n")
DIFFERENCES = ("            sums[0] += (alpha * _wsums(Wx, np.subtract(v1, v2, out=v1))\n"
               "                        + beta * _wsums(Wx, np.subtract(g1, g2, out=g1)))\n")
# the space-like jumps: the tops under the t-lines, the carried row first, against the bottoms
JUMPS = ("        below = tops[:, first:m]  # under the t-lines at the bottoms of slabs[first:]\n"
         "        if with_plus:\n"
         "            sums[1] += _wsums(Wt, below)\n"
         "        sums[0] += _wsums(Wt, np.subtract(below, bottom[:, first:], out=below))\n")

# (name, file, old text, new text, pytest node ids that must fail)
MUTANTS = [
    ("no refinement step", LINALG,
     "            x = x + self._lu_solve(r)\n", "            pass\n",
     ["tests/test_linalg.py"]),
    ("kl and ku swapped in zgbtrs", LINALG,
     "zgbtrs(self.lu, self.kl, self.ku, b, self.piv)",
     "zgbtrs(self.lu, self.ku, self.kl, b, self.piv)",
     ["tests/test_linalg.py"]),
    ("LU copy at rows kl - 1:", LINALG,
     "        lu[kl:] = ab\n", "        lu[kl - 1:-1] = ab\n",
     ["tests/test_linalg.py"]),
    ("band rows off by one in _slab_matrix", ASSEMBLY,
     "    ab[ku + a - b, cols] = diagonal\n", "    ab[ku + 1 + a - b, cols] = diagonal\n",
     [BAND_BLOCK]),
    ("sub- and super-diagonal rows swapped in _slab_matrix", ASSEMBLY,
     "    ab[ku + dim + a - b, cols[:-1]] = right_left",
     "    ab[ku - dim + a - b, cols[:-1]] = right_left",
     [BAND_BLOCK]),
    ("Dirichlet normal signs swapped in _slab_matrix", ASSEMBLY,
     "    dirichlet = 0.5 * (normal[:, None, None] * vg[own, own]",
     "    dirichlet = 0.5 * (-normal[:, None, None] * vg[own, own]",
     [BAND_BLOCK]),
    # the own-space solves alone, on meshes past the global cap, against the terms that
    # multiply u_x or v_x: constant data (u_x = 0) leaves the Dirichlet normal at 1e-13
    ("Dirichlet normal flipped in _slab_matrix, own-space solves only", ASSEMBLY,
     "    dirichlet = 0.5 * (normal[:, None, None] * vg[own, own]",
     "    dirichlet = 0.5 * (-normal[:, None, None] * vg[own, own]",
     [OWN_SPACE_ABOVE_CAP]),
    ("the sign of the -1/2 <u> [v_x] term flipped, own-space solves only", ASSEMBLY,
     " - 0.5 * na * gv + ", " + 0.5 * na * gv + ",
     [OWN_SPACE_ABOVE_CAP]),
    ("g_D's dx term flipped in _data_rhs, own-space solves only", ASSEMBLY,
     "0.5 * (sign * g + 1j / hx * v)", "0.5 * (-sign * g + 1j / hx * v)",
     [OWN_SPACE_ABOVE_CAP]),
    ("the volume term negated, own-space solves only", ASSEMBLY,
     "        diagonal += _pair(basis.table(n_form, \"volume\", image=True),",
     "        diagonal -= _pair(basis.table(n_form, \"volume\", image=True),",
     [OWN_SPACE_ABOVE_CAP]),
    ("the trial's left-side normal flipped in the batched combination", ASSEMBLY,
     "na, nb = normal[:, None, None, None], normal[None, :, None, None]",
     "na, nb = normal[:, None, None, None], np.abs(normal)[None, :, None, None]",
     [BAND_BLOCK]),
    # the penalties scaled by h_t: on the square meshes of conv-h they are the same numbers
    ("alpha = 1/h_t, beta = h_t in _slab_matrix", ASSEMBLY,
     "    alpha, beta = 1.0 / mesh.h[0], mesh.h[0]\n",
     "    alpha, beta = 1.0 / mesh.h[1], mesh.h[1]\n",
     [BAND_BLOCK]),
    ("Dirichlet owners swapped in _slab_matrix", ASSEMBLY,
     "    diagonal[-1] += dirichlet[0]\n    diagonal[0] += dirichlet[1]\n",
     "    diagonal[-1] += dirichlet[1]\n    diagonal[0] += dirichlet[0]\n",
     [BAND_BLOCK]),
    # march's slab rows: l of slab s + 1 takes the carry of slab s, solved in place
    ("march's carry into the slab just solved", ASSEMBLY,
     "                per_slab[slab + 1] -= ", "                per_slab[slab] -= ",
     [MARCH_GLOBAL]),
    ("march's last slab without its carry", ASSEMBLY,
     "            if slab + 1 < mesh.n_slabs:", "            if slab + 2 < mesh.n_slabs:",
     [MARCH_GLOBAL]),
    ("the traces' coefficient rows one slab late", ASSEMBLY,
     "slice(slabs.start * nx, slabs.stop * nx)",
     "slice((slabs.start + 1) * nx, (slabs.stop + 1) * nx)",
     ["tests/test_norms.py"]),
    ("the plane-wave flag ten times higher", ASSEMBLY,
     "COND_FLAG = 2.7e14\n", "COND_FLAG = 2.7e15\n",
     [SCREEN]),
    ("Dirichlet normal signs swapped in _data_rhs", ASSEMBLY,
     '((-1, mesh.xs[-1], "right", 1.0),\n'
     '                                        (0, mesh.xs[0], "left", -1.0))',
     '((-1, mesh.xs[-1], "right", -1.0),\n'
     '                                        (0, mesh.xs[0], "left", 1.0))',
     ["tests/test_assembly.py"]),
    ("Dirichlet owners swapped in _data_rhs", ASSEMBLY,
     '((-1, mesh.xs[-1], "right", 1.0),\n'
     '                                        (0, mesh.xs[0], "left", -1.0))',
     '((0, mesh.xs[-1], "right", 1.0),\n'
     '                                        (-1, mesh.xs[0], "left", -1.0))',
     ["tests/test_assembly.py"]),
    # the reference element's rule, from which Mesh.rule and the polynomial and plane-wave
    # trace tables alike are made
    ("repeat and tile swapped in the volume row", QUADRATURE,
     "x, t, w = np.repeat(x, n), np.tile(t, n),", "x, t, w = np.tile(x, n), np.repeat(t, n),",
     # the same points and weights in another order: the volume terms move by rounding
     # only, so the x-major order itself is what the test pins
     ["tests/test_mesh.py::test_rule_matches_the_global_quadrature"]),
    ("the sign of left's offset flipped", QUADRATURE,
     'np.full(n, 0.5 if place == "right" else -0.5)',
     'np.full(n, 0.5 if place == "right" else 0.5)',
     [BAND_BLOCK]),
    ("top and bottom swapped", QUADRATURE,
     'np.full(n, 0.5 if place == "top" else -0.5)', 'np.full(n, -0.5 if place == "top" else 0.5)',
     [BAND_BLOCK]),
    ("volume weights not halved in t", QUADRATURE,
     "np.outer(w, w).reshape(-1)", "np.outer(w, weights).reshape(-1)",
     [BAND_BLOCK]),
    ("dx table not divided by h_x", BASIS,
     "                    fun = fun / self.h[0]\n", "                    pass\n",
     [BAND_BLOCK]),
    ("dg_norm's beta term dropped", NORMS,
     "\n                        + beta * _wsums(Wx, np.subtract(g1, g2, out=g1))", "",
     ["tests/test_norms.py"]),
    ("alpha = 1/h_t, beta = h_t in the norms", NORMS,
     "1.0 / mesh.h[0], mesh.h[0]\n", "1.0 / mesh.h[1], mesh.h[1]\n",
     ["tests/test_norms.py"]),
    # a closed-form part, read on the boundary only, and the signs of a field's parts
    ("the closed-form part's sign flipped in the boundary rows", NORMS,
     "closed.append([(s * sign, part)", "closed.append([(-s * sign, part)",
     ["tests/test_norms.py"]),
    ("a field's later parts added, not subtracted", NORMS,
     "(np.add if sign > 0 else np.subtract)", "(np.add if sign != 0 else np.subtract)",
     ["tests/test_norms.py"]),
    ("the closed-form part's initial and final rows swapped", NORMS,
     "mesh.ts[[0, -1], None, None]", "mesh.ts[[-1, 0], None, None]",
     ["tests/test_norms.py"]),
    ("the closed-form part's x_lo and x_hi rows swapped", NORMS,
     "mesh.xs[[0, -1], None, None]", "mesh.xs[[-1, 0], None, None]",
     ["tests/test_norms.py"]),
    ("a row's sign not taken from its first traced part", NORMS,
     "sign = next((s for (s, _), end in zip(terms, ends) if not end), 1.0)", "sign = 1.0",
     ["tests/test_norms.py"]),
    ("the plus norm without the closed-form parts' interior traces", NORMS,
     "ends = [not with_plus and isinstance(", "ends = [isinstance(",
     ["tests/test_norms.py"]),
    # the one pass: a chunk owns the t-lines at its slabs' bottoms and carries one top row
    ("the carry row not copied", NORMS,
     "        tops[:, 0] = top[:, -1]  # the carry: the top of the chunk's last slab\n", "",
     ["tests/test_norms.py"]),
    ("slab 0's bottom taken as a jump", NORMS,
     JUMPS, JUMPS.replace("first:", "0:"),
     ["tests/test_norms.py"]),
    ("the interior jumps against the bottoms one row off", NORMS,
     JUMPS, JUMPS.replace("tops[:, first:m]", "tops[:, first + 1:m + 1]"),
     ["tests/test_norms.py"]),
    ("the sides' values written over the carried row", NORMS,
     'right = at.traces(traced, "right", tops[:, 1:])', 'right = at.traces(traced, "right", tops)',
     ["tests/test_norms.py"]),
    ("the closed-form part added to the carry row instead of the final row", NORMS,
     "_accumulate(top[:, -1], closed,", "_accumulate(tops[:, 0], closed,",
     ["tests/test_norms.py"]),
    ("Dirichlet owners swapped in the norms", NORMS,
     "alpha * (_wsums(Wx, left[:, :, 0]) + _wsums(Wx, right[:, :, -1]))",
     "alpha * (_wsums(Wx, right[:, :, 0]) + _wsums(Wx, left[:, :, -1]))",
     ["tests/test_norms.py"]),
    # the walk's in-place arithmetic: a term read after the jump that overwrites it
    ("the plus norm's tops under the t-lines read after the in-place jump", NORMS,
     JUMPS, JUMPS.replace("        if with_plus:\n            sums[1] += _wsums(Wt, below)\n", "")
     + "        if with_plus:\n            sums[1] += _wsums(Wt, below)\n",
     ["tests/test_norms.py"]),
    ("the time-like averages taken after the in-place differences", NORMS,
     AVERAGES + DIFFERENCES, DIFFERENCES + AVERAGES,
     ["tests/test_norms.py"]),
    ("the series' T over t's entries in reverse order", SOLUTIONS,
     "self.t_table(t.reshape(-1)).T", "self.t_table(t.reshape(-1)[::-1]).T",
     ["tests/test_norms.py::test_series_value_on_unbroadcast_points_equals_the_broadcast_call"]),
    ("the blocked T's step D at 2B, not 4B", SOLUTIONS,
     "4.0 * b * o", "2.0 * b * o",
     [SERIES_TABLES]),
    ("the blocked T's first block seeded with ones", SOLUTIONS,
     "        T[0] = P\n", "        T[0] = 1.0\n",
     [SERIES_TABLES]),
]


def _pytest(copy: Path, selection: list[str], *flags: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *flags, *selection], cwd=copy, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    missing = [name for name, path, old, _, _ in MUTANTS
               if (ROOT / path).read_text().count(old) != 1]
    for name in missing:
        print(f"old text not found exactly once: {name}")
    if missing:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        selections = sorted({node for *_, selection in MUTANTS for node in selection})
        if _pytest(copy, selections) != 0:
            print(f"the unmutated copy fails: {' '.join(selections)}")
            return 1
        survivors = []
        for name, path, old, new, selection in MUTANTS:
            original = (copy / path).read_text()
            (copy / path).write_text(original.replace(old, new))
            start = time.perf_counter()
            survived = _pytest(copy, selection, "-x") in (0, 4, 5)  # passed, or ran nothing
            (copy / path).write_text(original)
            if survived:
                survivors.append(name)
            print(f"{'SURVIVED' if survived else 'killed':8}  "
                  f"{time.perf_counter() - start:5.1f} s  {name}")
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
