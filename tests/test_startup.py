"""Start-up guard: loading the package, the CLI and a plain fleet imports no scipy.

scipy costs ~0.9 s to import, so each module imports the scipy subpackage it
needs inside the function that calls it (docs/performance.md, "Start-up").  A
fresh interpreter checks that ``import repro``, ``import repro.cli`` and a
direct-mode evolutionary fleet leave ``sys.modules`` free of scipy, then runs
every path that does call scipy; each result must equal the same call made in
this (already warm) process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)

#: The calls that load scipy on first use.  Executed in the fresh child and in
#: this process; ``deferred_results()`` returns plain JSON-able values (float
#: reprs round-trip exactly).
_DEFERRED = '''
import numpy as np

from repro.color.mixing import SubtractiveMixingModel
from repro.hardware.labware import Plate
from repro.solvers.bayesian import BayesianSolver
from repro.solvers.sobol import SobolSolver
from repro.vision.extraction import WellColorExtractor
from repro.vision.render import render_plate_image


def deferred_results():
    chemistry = SubtractiveMixingModel()
    sobol = SobolSolver(seed=11).propose(4)

    # n_initial=2 and four observations: the next proposal fits the GP's
    # hyperparameters (scipy.optimize) before scoring candidates.
    bayesian = BayesianSolver(seed=12, n_initial=2, n_candidates=32)
    ratios = np.random.default_rng(13).uniform(size=(4, 4))
    bayesian.observe(ratios, np.zeros((4, 3)), np.linalg.norm(ratios - 0.4, axis=1))
    proposal = bayesian.propose(2)

    plate = Plate(barcode="startup")
    for name in plate.empty_wells[:6]:
        for dye in chemistry.dyes.names:
            plate.well(name).add(dye, 15.0)
    frame = render_plate_image(plate, chemistry, rng=np.random.default_rng(14))
    extraction = WellColorExtractor().extract(frame)

    return {
        "sobol": sobol.tolist(),
        "bayesian": proposal.tolist(),
        "gp_noise": bayesian._gp.noise,
        "extract": {name: rgb.tolist() for name, rgb in extraction.well_colors.items()},
        "invert": chemistry.invert([120.0, 120.0, 120.0], total_volume=80.0).tolist(),
    }
'''

_CHILD = (
    """
import json
import sys

import repro
import repro.cli
from repro.core.campaign import run_campaign

run_campaign(n_runs=2, samples_per_run=2, n_workcells=2, seed=5)
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
"""
    + _DEFERRED
    + """
print(json.dumps({"scipy_at_startup": loaded, "results": deferred_results()}))
"""
)


def test_startup_loads_no_scipy_and_deferred_paths_match():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.strip().splitlines()[-1])
    assert report["scipy_at_startup"] == []

    namespace: dict = {}
    exec(_DEFERRED, namespace)
    expected = json.loads(json.dumps(namespace["deferred_results"]()))
    assert report["results"] == expected
