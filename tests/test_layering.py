"""Import-hierarchy tests: the layering below ``repro.scenarios`` is strict.

The workload generators and the campaign engine consume the vectorised
sampler and the order-rule mirrors from their homes
(:mod:`repro.workloads.sampling`, :mod:`repro.core.order_rules`); nothing
below the scenario subsystem may import from ``repro.scenarios`` at module
level.  The Figures 10-13 drivers are scenario clients: they import the
runner inside ``run()``, so importing them (or the registry, or the CLI)
still loads no scenario module.  The simulation replays sit below the
campaign engine and load no experiment module.  The checks run in subprocesses so they
cannot be fooled by modules some earlier test already imported.
"""

from __future__ import annotations

import subprocess
import sys


def test_lower_layers_do_not_import_scenarios():
    """core + workloads + experiments import (and run) without scenarios."""
    probe = (
        "import sys\n"
        "import repro.core.order_rules\n"
        "import repro.core.batch_twoport\n"
        "import repro.obs\n"
        "import repro.workloads.sampling\n"
        "import repro.experiments\n"
        "import repro.experiments.campaign_engine\n"
        "import repro.experiments.common\n"
        "import repro.experiments.sweep_engine\n"
        "import repro.experiments.fig08_linearity\n"
        "import repro.experiments.fig09_trace\n"
        "import repro.experiments.fig14_participation\n"
        "import repro.experiments.crossover\n"
        "import repro.experiments.registry\n"
        "from repro.workloads.platforms import campaign_factors\n"
        "factors = campaign_factors('hetero-star', 2, size=3, seed=0)\n"
        "assert len(factors) == 2\n"
        "polluted = sorted(m for m in sys.modules if m.startswith('repro.scenarios'))\n"
        "assert not polluted, f'lower layers pulled in {polluted}'\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_replays_load_no_experiment_module():
    """The replays take plain arrays: the campaign engine feeds them, never
    the other way round."""
    probe = (
        "import sys\n"
        "import repro.simulation.fast_twoport\n"
        "import repro.simulation.fast_cluster\n"
        "polluted = sorted(m for m in sys.modules if m.startswith('repro.experiments'))\n"
        "assert not polluted, f'the replays pulled in {polluted}'\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_cli_import_loads_no_scenario_module():
    """Every CLI start (``scenarios serve`` included) skips the scenario layer."""
    probe = (
        "import sys\n"
        "import repro.cli\n"
        "polluted = sorted(m for m in sys.modules if m.startswith('repro.scenarios'))\n"
        "assert not polluted, f'import repro.cli pulled in {polluted}'\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_campaigns_and_queries_load_no_scipy(tmp_path):
    """SciPy is the HiGHS cross-check backend only: no start-up, LP-only
    campaign or kernel-backed query imports it."""
    probe = (
        "import sys\n"
        "import repro, repro.cli, repro.scenarios, repro.api\n"
        "from repro.api import QueryService\n"
        "from repro.scenarios.runner import run_campaign\n"
        "from repro.scenarios.spec import named_space\n"
        "spec = named_space('mega-uniform').derive(count=4)\n"
        f"progress = run_campaign(spec, {str(tmp_path)!r}, chunk_size=2)\n"
        "assert progress.finished and progress.total_chunks == 2\n"
        "costs = {'P1': {'c': 1.0, 'w': 3.0, 'd': 0.5},\n"
        "         'P2': {'c': 2.0, 'w': 2.0, 'd': 1.0}}\n"
        "service = QueryService()\n"
        "for one_port in (True, False):\n"
        "    assert service.query(costs, one_port=one_port).throughput > 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, f'scipy modules loaded: {loaded[:5]}'\n"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_scenario_spec_shares_the_sampling_types():
    """The spec layer embeds the workload layer's family description."""
    from repro.scenarios import spec as scenario_spec
    from repro.workloads import sampling

    assert scenario_spec.Distribution is sampling.Distribution
    assert scenario_spec.PlatformFamily is sampling.PlatformFamily
    assert scenario_spec.Workload is sampling.Workload
