"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (useful on offline machines where ``pip install -e .`` cannot fetch
build dependencies; see README "Installation" for details) and hosts the
workcell/fleet factory fixtures shared by ``tests/`` and ``benchmarks/`` --
the one place engine construction is spelled out, so tests and benchmarks
cannot drift apart on how a workcell or fleet is built.
"""

import os
import re
import shutil
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture
def instrumented_locks():
    """Opt-in concurrency instrumentation for one test.

    Installs a fresh :class:`~repro.analysis.runtime.LockOrderGraph` and
    :class:`~repro.analysis.runtime.ThreadOwnershipChecker`; every lock the
    driver/chaos layer creates while this fixture is active reports
    acquisition order to the graph, and the bridge's engine side asserts
    single-thread ownership.  Yields the
    :class:`~repro.analysis.runtime.Instrumentation` scope so tests can
    assert on ``instr.graph.find_cycles()`` and friends.  Restores whatever
    was installed before (e.g. the ``REPRO_ANALYSIS=1`` process-wide scope
    used by the CI instrumented subset).
    """
    from repro.analysis import runtime

    previous = runtime.current()
    instr = runtime.install()
    try:
        yield instr
    finally:
        if previous is not None:
            runtime.install(previous)
        else:
            runtime.uninstall()


@pytest.fixture
def portal_store_dir(tmp_path, request):
    """A durable portal-store directory registered for artifact capture.

    Tests exercising :class:`~repro.publish.store.DurableDataPortal` create
    their store here; when such a test fails and ``$REPRO_PORTAL_ARTIFACTS``
    is set (as in CI), the exact segment bytes are copied below that
    directory so the failure can be replayed from the uploaded artifact.
    """
    directory = tmp_path / "portal-store"
    registered = getattr(request.node, "portal_store_dirs", None)
    if registered is None:
        registered = []
        request.node.portal_store_dirs = registered
    registered.append(directory)
    return directory


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    target_root = os.environ.get("REPRO_PORTAL_ARTIFACTS")
    if not target_root or not report.failed:
        return
    safe_id = re.sub(r"[^A-Za-z0-9_.-]+", "_", item.nodeid)
    for number, directory in enumerate(getattr(item, "portal_store_dirs", [])):
        if not directory.exists():
            continue
        destination = os.path.join(target_root, safe_id, f"store-{number}")
        if not os.path.exists(destination):
            shutil.copytree(directory, destination)
    # If the failing test had a flight recorder installed (repro.obs), dump
    # its ring next to the portal stores: the last spans/events before the
    # failure, replayable from the uploaded artifact.  No-op when telemetry
    # is off -- the default for the suite.
    try:
        from repro.obs import recorder as obs_recorder
    except Exception:  # pragma: no cover - obs must never break reporting
        return
    obs_recorder.flight_dump(
        "test-failure",
        directory=os.path.join(target_root, safe_id),
        test=item.nodeid,
        when=report.when,
    )


@pytest.fixture
def make_workcell():
    """Factory for deterministic colour-picker workcells.

    ``make_workcell(seed=7, n_ot2=2, name=...)`` forwards everything to
    :func:`~repro.wei.workcell.build_color_picker_workcell`; the only added
    opinion is a default seed, so two calls with the same arguments build
    identical workcells.
    """
    from repro.wei.workcell import build_color_picker_workcell

    def _make(seed=42, **kwargs):
        return build_color_picker_workcell(seed=seed, **kwargs)

    return _make


@pytest.fixture
def make_engine(make_workcell):
    """Factory for a :class:`ConcurrentWorkflowEngine` over a fresh workcell.

    ``make_engine(seed=7, n_ot2=2, name=..., drivers=..., completion_timeout_s=...)``:
    workcell-construction keywords go to :fixture:`make_workcell`,
    engine-construction keywords to the engine.
    """
    from repro.wei.concurrent import ConcurrentWorkflowEngine

    def _make(seed=42, *, name=None, n_ot2=1, drivers=None, **engine_kwargs):
        workcell_kwargs = {"seed": seed, "n_ot2": n_ot2}
        if name is not None:
            workcell_kwargs["name"] = name
        workcell = make_workcell(**workcell_kwargs)
        return ConcurrentWorkflowEngine(workcell, drivers=drivers, **engine_kwargs)

    return _make


@pytest.fixture
def make_fleet():
    """Factory for a :class:`MultiWorkcellCoordinator` colour-picker fleet.

    ``make_fleet(n_workcells=2, seed=0, n_ot2=1, engine_factory=...)`` wraps
    :meth:`MultiWorkcellCoordinator.build_color_picker_fleet`, which derives
    per-shard seeds so the whole fleet is reproducible.
    """
    from repro.wei.coordinator import MultiWorkcellCoordinator

    def _make(n_workcells=2, *, seed=0, n_ot2=1, engine_factory=None, **kwargs):
        return MultiWorkcellCoordinator.build_color_picker_fleet(
            n_workcells,
            seed=seed,
            n_ot2=n_ot2,
            engine_factory=engine_factory,
            **kwargs,
        )

    return _make


@pytest.fixture
def iid_frame():
    """Renderer of reference frames with i.i.d. pixel noise.

    ``iid_frame(plate, chemistry, rng, config=None)`` returns ``(image,
    truth, clean)``: ``clean`` is a ``pixel_noise_sigma=0`` render drawing
    the pose from ``rng``, and ``image`` is ``clean`` plus ``rng``'s next
    ``standard_normal`` frame times the config's sigma, clipped to [0, 255].
    That is the renderer's pixel pipeline before frames took their noise
    from the per-process bank, kept here as the reference the bank is judged
    against, so ``src`` has one noise path.
    """
    import dataclasses

    import numpy as np

    from repro.vision.render import PlateImageConfig, render_plate_image

    def _render(plate, chemistry, rng, config=None):
        config = config if config is not None else PlateImageConfig()
        noise_free = dataclasses.replace(config, pixel_noise_sigma=0.0)
        clean, truth = render_plate_image(plate, chemistry, config=noise_free, rng=rng, return_truth=True)
        image = clean + rng.standard_normal(clean.shape) * config.pixel_noise_sigma
        np.clip(image, 0.0, 255.0, out=image)
        return image, truth, clean

    return _render
