"""The working pipeline is the current version's replay, edit by edit.

``Vistrail.pipeline_at`` hands an executor a copy of the working
pipeline instead of replaying the current version from the root, which
is sound only while the working pipeline equals that replay.  Seeded
random edit sequences — modules and connections added and deleted,
parameters set, older versions checked out and branched from, a save
and load — pin that equality after every step, rejected edits included.

The same sequences pin the signatures an executor keeps on a pipeline:
a copy keeps nothing, so the working pipeline's kept signatures must
equal its copy's after every step, which fails if any mutator forgets
to drop them.
"""

import random

import pytest

from repro.hyperwall.client import DisplayNode
from repro.provenance.version_tree import VersionTree
from repro.provenance.vistrail import Vistrail
from repro.util.errors import WorkflowError
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline
from repro.workflow.module import Module, ParameterSpec
from repro.workflow.ports import PortSpec
from repro.workflow.registry import ModuleRegistry


class Stage(Module):
    name = "Stage"
    input_ports = (PortSpec("a", optional=True), PortSpec("b", optional=True))
    output_ports = (PortSpec("out"),)
    parameters = (ParameterSpec("level", 0), ParameterSpec("label", ""))

    def compute(self, inputs):
        return {"out": self.parameter_values["level"]}


class Cell(Module):
    name = "Cell"
    input_ports = (PortSpec("a", optional=True),)
    output_ports = (PortSpec("cell"),)
    parameters = (ParameterSpec("width", 4),)

    def compute(self, inputs):
        return {"cell": object()}


@pytest.fixture()
def registry():
    reg = ModuleRegistry()
    reg.register("t", Stage)
    reg.register("t", Cell)
    return reg


def assert_working_pipeline_is_the_replay(vistrail):
    replay = vistrail.tree.materialize(vistrail.current_version, vistrail.registry)
    handed = vistrail.pipeline_at(vistrail.current_version)
    assert handed is not vistrail.pipeline
    executor = Executor(caching=False)
    expected = (replay.to_dict(), executor.signatures(replay))
    for pipeline in (vistrail.pipeline, handed):
        assert (pipeline.to_dict(), executor.signatures(pipeline)) == expected


def assert_kept_signatures_are_fresh(pipeline):
    executor = Executor(caching=False)
    assert executor.signatures(pipeline) == executor.signatures(pipeline.copy())


def random_edit(rng, vistrail, tmp_path):
    """Apply one random edit; returns the (possibly reloaded) vistrail."""
    pipeline = vistrail.pipeline
    modules = sorted(pipeline.modules)
    connections = sorted(pipeline.connections)
    roll = rng.random()
    if not modules or roll < 0.2:
        vistrail.add_module("Stage", {"level": rng.randint(0, 3)})
    elif roll < 0.3:
        vistrail.delete_module(rng.choice(modules))
    elif roll < 0.5:
        source, target = rng.choice(modules), rng.choice(modules)
        try:  # a cycle, a self-loop or a taken port is rejected
            vistrail.add_connection(source, "out", target, rng.choice("ab"))
        except WorkflowError:
            pass
    elif roll < 0.6 and connections:
        vistrail.delete_connection(rng.choice(connections))
    elif roll < 0.8:
        name, value = rng.choice([("level", rng.randint(0, 9)), ("label", "x" * rng.randint(0, 3))])
        vistrail.set_parameter(rng.choice(modules), name, value)
    elif roll < 0.85:
        with pytest.raises(WorkflowError):
            vistrail.set_parameter(rng.choice(modules), "no_such_parameter", 1)
    elif roll < 0.95:  # back up to an older version; the next edits branch
        vistrail.checkout(rng.randrange(vistrail.current_version + 1))
    else:
        path = tmp_path / f"v{vistrail.current_version}.json"
        vistrail.save(path)
        vistrail = Vistrail.load(path, vistrail.registry)
    return vistrail


@pytest.mark.parametrize("seed", range(8))
def test_random_edits_keep_the_working_pipeline_equal_to_the_replay(registry, tmp_path, seed):
    rng = random.Random(seed)
    vistrail = Vistrail("random", registry)
    for _ in range(80):
        vistrail = random_edit(rng, vistrail, tmp_path)
        assert_kept_signatures_are_fresh(vistrail.pipeline)
        assert_working_pipeline_is_the_replay(vistrail)
    assert vistrail.tree.branch_points()  # the sequence did branch


def test_rejected_edits_leave_the_two_equal(registry):
    vistrail = Vistrail("rejected", registry)
    a = vistrail.add_module("Stage")
    b = vistrail.add_module("Stage")
    vistrail.add_connection(a, "out", b, "a")
    version = vistrail.current_version
    with pytest.raises(WorkflowError):
        vistrail.set_parameter(a, "no_such_parameter", 1)
    with pytest.raises(WorkflowError):
        vistrail.add_connection(b, "out", a, "a")  # a cycle
    with pytest.raises(WorkflowError):
        vistrail.add_module("Stage", {"no_such_parameter": 1})
    with pytest.raises(WorkflowError):
        vistrail.delete_connection(99)
    assert vistrail.current_version == version
    assert_kept_signatures_are_fresh(vistrail.pipeline)
    assert_working_pipeline_is_the_replay(vistrail)


def test_only_another_version_is_replayed(registry, monkeypatch):
    vistrail = Vistrail("replays", registry)
    a = vistrail.add_module("Stage")
    older = vistrail.current_version
    vistrail.set_parameter(a, "level", 5)
    replayed = []
    real = VersionTree.materialize
    monkeypatch.setattr(
        VersionTree, "materialize",
        lambda tree, version, registry=None: replayed.append(version) or real(tree, version, registry),
    )
    current = vistrail.pipeline_at(vistrail.current_version)
    assert replayed == []
    assert current.modules[a].parameters["level"] == 5
    assert vistrail.pipeline_at(older).modules[a].parameters == {}
    assert replayed == [older]


def test_a_later_edit_never_reaches_a_handed_pipeline(registry):
    vistrail = Vistrail("owned", registry)
    a = vistrail.add_module("Stage", {"level": 1})
    version = vistrail.current_version
    handed = vistrail.pipeline_at(version)
    vistrail.set_parameter(a, "level", 2)
    vistrail.add_module("Stage")
    assert handed.to_dict() == vistrail.tree.materialize(version, registry).to_dict()
    assert handed.modules[a].parameters == {"level": 1}


def test_each_mutator_drops_the_kept_signatures(registry):
    pipeline = Pipeline(registry)
    executor = Executor(caching=False)
    edits = [
        lambda p: p.add_module("Stage"),
        lambda p: p.add_module("Stage", {"level": 2}),
        lambda p: p.add_connection(0, "out", 1, "a"),
        lambda p: p.set_parameter(0, "level", 7),
        lambda p: p.delete_connection(0),
        lambda p: p.add_connection(1, "out", 0, "b"),
        lambda p: p.delete_module(1),
    ]
    for edit in edits:
        kept = executor.signatures(pipeline)
        assert executor.signatures(pipeline) is kept  # unchanged: a read
        edit(pipeline)
        assert pipeline.kept_signatures is None
        assert_kept_signatures_are_fresh(pipeline)
    assert pipeline.copy().kept_signatures is None


def test_the_returned_signatures_cannot_change_the_kept_ones(registry):
    pipeline = Pipeline(registry)
    a = pipeline.add_module("Stage")
    executor = Executor(caching=False)
    signatures = executor.signatures(pipeline)
    before = dict(signatures)
    with pytest.raises(TypeError):
        signatures[a] = "forged"
    with pytest.raises(TypeError):
        del signatures[a]
    assert dict(executor.signatures(pipeline)) == before
    assert dict(Executor(caching=True).signatures(pipeline)) == before


def test_an_unchanged_pipeline_re_executes_without_hashing(registry, monkeypatch):
    pipeline = Pipeline(registry)
    stage = pipeline.add_module("Stage", {"level": 1})
    sink = pipeline.add_module("Cell")
    pipeline.add_connection(stage, "out", sink, "a")
    node = DisplayNode(0)
    built = node.execute("cell", pipeline, sink).output(sink, "cell")
    calls = []
    real = Executor._signature
    monkeypatch.setattr(
        Executor, "_signature",
        staticmethod(lambda *args: calls.append(args[1]) or real(*args)),
    )
    for _ in range(3):
        result = node.execute("cell", pipeline, sink)
        assert result.output(sink, "cell") is built
        assert result.cache_hits == 1
    assert calls == []
    pipeline.set_parameter(stage, "level", 2)  # an edit hashes again and rebuilds
    assert node.execute("cell", pipeline, sink).output(sink, "cell") is not built
    assert sorted(set(calls)) == [stage, sink]
