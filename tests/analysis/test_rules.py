"""Per-rule fixtures: one snippet that triggers, one that is clean, one
that suppresses the finding with ``# reprolint: disable=...``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import pytest

from repro.analysis import Project, analyze_project, default_registry


@dataclass(frozen=True)
class RuleCase:
    """Fixture pair for one rule, analyzed under ``path``.

    ``extra`` holds companion modules for the whole-program rules whose
    contract spans two files (digest policy, import cycles); the finding
    itself always lands in ``path``.
    """

    path: str
    bad: str
    good: str
    extra: Tuple[Tuple[str, str], ...] = ()


CASES: Dict[str, RuleCase] = {
    "R001": RuleCase(
        path="src/repro/experiments/fixture.py",
        bad=(
            "import random\n"
            "\n"
            "def jitter():\n"
            "    return random.random()\n"
        ),
        good=(
            "import numpy as np\n"
            "from repro.simkit.rng import derive_seed\n"
            "\n"
            "def jitter(master_seed):\n"
            "    stream = np.random.default_rng(derive_seed(master_seed, 'jitter'))\n"
            "    return stream.normal()\n"
        ),
    ),
    "R002": RuleCase(
        path="src/repro/engine/fixture.py",
        bad=(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        good=(
            "def stamp(simulator):\n"
            "    return simulator.now\n"
        ),
    ),
    "R003": RuleCase(
        path="src/repro/routing/fixture.py",
        bad=(
            "def pick_next_hops(neighbor_ids):\n"
            "    candidates = set(neighbor_ids)\n"
            "    return [n for n in candidates]\n"
        ),
        good=(
            "def pick_next_hops(neighbor_ids):\n"
            "    candidates = set(neighbor_ids)\n"
            "    return [n for n in sorted(candidates)]\n"
        ),
    ),
    "R004": RuleCase(
        path="src/repro/routing/fixture.py",
        bad=(
            "def coincident(a, b):\n"
            "    return distance(a, b) == 0.0\n"
        ),
        good=(
            "from repro.geometry.primitives import points_coincide\n"
            "\n"
            "def coincident(a, b):\n"
            "    return points_coincide(a, b)\n"
        ),
    ),
    "R005": RuleCase(
        path="src/repro/network/fixture.py",
        bad=(
            "def collect(into=[]):\n"
            "    into.append(1)\n"
            "    return into\n"
        ),
        good=(
            "def collect(into=None):\n"
            "    into = [] if into is None else into\n"
            "    into.append(1)\n"
            "    return into\n"
        ),
    ),
    "R006": RuleCase(
        path="src/repro/routing/fixture.py",
        bad=(
            "from repro.routing.base import RoutingProtocol\n"
            "\n"
            "class HalfProtocol(RoutingProtocol):\n"
            "    def handle(self, view):\n"
            "        return []\n"
        ),
        good=(
            "from repro.routing.base import RoutingProtocol\n"
            "\n"
            "class WholeProtocol(RoutingProtocol):\n"
            "    name = 'WHOLE'\n"
            "\n"
            "    def prepare_task(self, network, source_id, destination_ids):\n"
            "        pass\n"
            "\n"
            "    def handle(self, view, packet):\n"
            "        return []\n"
        ),
    ),
    "R007": RuleCase(
        path="src/repro/routing/fixture.py",
        bad=(
            "from repro.routing.base import RoutingProtocol\n"
            "\n"
            "class SneakyProtocol(RoutingProtocol):\n"
            "    name = 'SNEAKY'\n"
            "\n"
            "    def handle(self, view, packet):\n"
            "        packet.hop_count = 0\n"
            "        return []\n"
        ),
        good=(
            "from repro.routing.base import RoutingProtocol\n"
            "\n"
            "class HonestProtocol(RoutingProtocol):\n"
            "    name = 'HONEST'\n"
            "\n"
            "    def handle(self, view, packet):\n"
            "        trimmed = packet.with_destinations(packet.destinations[:1])\n"
            "        return [(view.neighbor_ids[0], trimmed)]\n"
        ),
    ),
    "R008": RuleCase(
        path="src/repro/routing/__init__.py",
        bad=(
            "from repro.routing.base import NodeView, RoutingProtocol\n"
            "\n"
            "__all__ = ['NodeView']\n"
        ),
        good=(
            "from repro.routing.base import NodeView, RoutingProtocol\n"
            "\n"
            "__all__ = ['NodeView', 'RoutingProtocol']\n"
        ),
    ),
    "R009": RuleCase(
        path="src/repro/experiments/fixture.py",
        bad=(
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except:\n"
            "        return None\n"
        ),
        good=(
            "def load(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except OSError:\n"
            "        return None\n"
        ),
    ),
    "R010": RuleCase(
        path="src/repro/network/fixture.py",
        bad=(
            "a = compute()  # type: ignore\n"
            "b = compute()  # type: ignore\n"
            "c = compute()  # type: ignore\n"
        ),
        good=(
            "a = compute()  # type: ignore\n"
            "b = compute()\n"
            "c = compute()\n"
        ),
    ),
    "R011": RuleCase(
        path="src/repro/engine/fixture.py",
        bad=(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        good=(
            "def stamp(simulator):\n"
            "    return simulator.now\n"
        ),
    ),
    "R012": RuleCase(
        path="src/repro/network/fixture.py",
        bad=(
            "class Grid:\n"
            "    def __init__(self):\n"
            "        self._cells = {}\n"
            "\n"
            "    def drop(self, key):\n"
            "        self._cells.pop(key, None)\n"
        ),
        good=(
            "class Grid:\n"
            "    def __init__(self):\n"
            "        self._cells = {}\n"
            "\n"
            "    def drop(self, key):\n"
            "        self._cells.pop(key, None)\n"
            "        self._refresh_cell(key)\n"
            "\n"
            "    def _refresh_cell(self, key):\n"
            "        pass\n"
        ),
    ),
    "R013": RuleCase(
        path="src/repro/perf/kernels.py",
        bad=(
            "def scale_batch(values):\n"
            "    return [v * 2.0 for v in values]\n"
        ),
        good=(
            "SCALAR_REFERENCES = {\n"
            "    'scale_batch': 'repro.perf.kernels._scale_one',\n"
            "}\n"
            "\n"
            "def _scale_one(value):\n"
            "    return value * 2.0\n"
            "\n"
            "def scale_batch(values):\n"
            "    return [_scale_one(v) for v in values]\n"
        ),
    ),
    "R014": RuleCase(
        path="src/repro/engine/trace.py",
        bad=(
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass\n"
            "class FrameRecord:\n"
            "    time_s: float\n"
            "    debug_note: str\n"
        ),
        good=(
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass\n"
            "class FrameRecord:\n"
            "    time_s: float\n"
        ),
        extra=(
            (
                "src/repro/engine/digest.py",
                "DIGEST_INCLUDED_FIELDS = {\n"
                "    'FrameRecord': ('time_s',),\n"
                "}\n"
                "\n"
                "DIGEST_EXCLUDED_FIELDS = {}\n",
            ),
        ),
    ),
    "R015": RuleCase(
        path="src/repro/alpha.py",
        bad="import repro.beta\n",
        good=(
            "def use_beta():\n"
            "    import repro.beta\n"
            "    return repro.beta\n"
        ),
        extra=(("src/repro/beta.py", "import repro.alpha\n"),),
    ),
    "R016": RuleCase(
        path="src/repro/network/fixture.py",
        bad=(
            "def _lonely():\n"
            "    return 0\n"
        ),
        good=(
            "def _helper():\n"
            "    return 0\n"
            "\n"
            "def use():\n"
            "    return _helper()\n"
        ),
    ),
    "R017": RuleCase(
        path="src/repro/network/fixture.py",
        bad=(
            "class Net:\n"
            "    def kill(self, idx):\n"
            "        self.alive[idx] = False\n"
            "        self._invalidate_node(idx)\n"
            "\n"
            "    def _invalidate_node(self, idx):\n"
            "        pass\n"
        ),
        good=(
            "class Net:\n"
            "    def kill(self, idx):\n"
            "        self._ensure_private_node_state()\n"
            "        self.alive[idx] = False\n"
            "        self._invalidate_node(idx)\n"
            "\n"
            "    def _ensure_private_node_state(self):\n"
            "        self.alive = self.alive.copy()\n"
            "\n"
            "    def _invalidate_node(self, idx):\n"
            "        pass\n"
        ),
    ),
}


def _analyze(case: RuleCase, source: str):
    sources = {case.path: source}
    sources.update(dict(case.extra))
    return analyze_project(Project.from_sources(sources))


def _findings_for(rule_id: str, case: RuleCase, source: str):
    report = _analyze(case, source)
    return [f for f in report.findings if f.rule_id == rule_id]


def test_every_builtin_rule_has_a_case():
    assert sorted(CASES) == default_registry().rule_ids()


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_triggers(rule_id):
    case = CASES[rule_id]
    findings = _findings_for(rule_id, case, case.bad)
    assert findings, f"{rule_id} did not fire on its trigger fixture"
    for finding in findings:
        assert finding.path == case.path
        assert finding.line >= 1
        assert finding.message
        assert finding.fix_hint, f"{rule_id} findings must carry a fix hint"


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_good_fixture_is_clean(rule_id):
    case = CASES[rule_id]
    assert _findings_for(rule_id, case, case.good) == []


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_file_level_suppression_silences(rule_id):
    case = CASES[rule_id]
    report = _analyze(case, f"# reprolint: disable={rule_id}\n" + case.bad)
    assert [f for f in report.findings if f.rule_id == rule_id] == []
    assert any(f.rule_id == rule_id for f in report.suppressed)
    assert report.directive_count == 1


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rendered_finding_names_the_rule(rule_id):
    case = CASES[rule_id]
    findings = _findings_for(rule_id, case, case.bad)
    rendered = findings[0].render()
    assert rule_id in rendered
    assert case.path in rendered


@pytest.mark.parametrize(
    "mention, alive",
    [
        ("'repro.network.fixture.Net._scalar'", True),
        ("'see Net._scalar for details'", False),
    ],
)
def test_dead_code_counts_dotted_path_strings_as_references(mention, alive):
    """A registry naming a private function by dotted path keeps it alive."""
    source = (
        f"REGISTRY = {{'kernel': {mention}}}\n"
        "\n"
        "class Net:\n"
        "    def _scalar(self):\n"
        "        return 0\n"
    )
    report = analyze_project(
        Project.from_sources({"src/repro/network/fixture.py": source})
    )
    dead = [f for f in report.findings if f.rule_id == "R016"]
    assert (dead == []) is alive
