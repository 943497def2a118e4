"""The predictor's runtime needs numpy alone.

scipy and networkx are test oracles (and ``to_networkx``'s optional
export), never imports on the serving, training or fleet paths: together
they add about 80 MB and a second to every process that loads ``repro``.
Each check runs in a fresh interpreter, so modules the test session has
already imported cannot hide a module-level import.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
OPTIONAL = ("scipy", "networkx")

REFUSE = textwrap.dedent(f"""
    import sys

    class RefuseOptional:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in {OPTIONAL!r}:
                raise ImportError(f"{{name}} is not a runtime dependency")
            return None

    sys.meta_path.insert(0, RefuseOptional())
""")


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_repro_loads_neither_optional_module():
    out = _run(textwrap.dedent(f"""
        import sys
        import repro
        print(sorted(m for m in sys.modules
                     if m.partition(".")[0] in {OPTIONAL!r}))
    """))
    assert out.strip() == "[]"


def test_serve_train_and_fleet_run_without_optional_modules():
    out = _run(REFUSE + textwrap.dedent("""
        import math

        from repro.core import DNNOccu, DNNOccuConfig, TrainConfig, Trainer
        from repro.data import generate_dataset
        from repro.fleet import FleetService
        from repro.gpu import A100
        from repro.models import ModelConfig, build_model, list_models
        from repro.serve import PredictorService

        graphs = [build_model(n, ModelConfig(batch_size=16))
                  for n in list_models()]
        model = DNNOccu(DNNOccuConfig(hidden=16, num_heads=2), seed=0)
        with PredictorService(model, A100) as svc:
            one = [svc.predict(g) for g in graphs]
            many = svc.predict_many(graphs)
        assert all(math.isfinite(p) for p in one + many)

        data = generate_dataset(["lenet"], [A100], configs_per_model=4,
                                seed=0)
        assert len(data) == 4
        history = Trainer(model, TrainConfig(epochs=1, batch_size=4)).fit(
            data)
        assert len(history.train_loss) == 1

        with FleetService(num_workers=1, mode="thread") as fleet:
            assert math.isfinite(fleet.predict(graphs[0]))
        print("ok")
    """))
    assert out.strip().endswith("ok")
