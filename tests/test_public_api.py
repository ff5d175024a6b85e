"""The public API surface: everything advertised must resolve."""

import importlib

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackages_importable(self):
        for subpackage in (
            "simcore", "perfmodel", "forest", "core", "workload",
            "engine", "schedulers", "cluster", "metrics", "experiments",
            "cli",
        ):
            importlib.import_module(f"repro.{subpackage}")

    def test_quickstart_docstring_flow(self):
        """The module docstring's quickstart must actually run."""
        from repro import (
            AZURE_CODE,
            PoissonArrivals,
            ServeConfig,
            Session,
            TraceBuilder,
        )

        trace = TraceBuilder(AZURE_CODE, PoissonArrivals(3.0)).build(30)
        session = Session(ServeConfig(scheduler="qoserve"))
        for request in trace:
            session.submit(request)
        session.drain()
        summary = session.summary()
        assert summary.finished == 30

    def test_scheduler_names_unique(self):
        from repro import (
            EDFScheduler,
            FCFSScheduler,
            SJFScheduler,
            SRPFScheduler,
        )
        names = {
            cls.name
            for cls in (
                FCFSScheduler, SJFScheduler, SRPFScheduler, EDFScheduler
            )
        }
        assert len(names) == 4
