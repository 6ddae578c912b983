"""Group modules: pipelines encapsulated as single modules."""

import pytest

from repro.util.errors import WorkflowError
from repro.workflow.executor import Executor
from repro.workflow.group import create_group, register_group
from repro.workflow.module import Module, ParameterSpec
from repro.workflow.package import basic_package
from repro.workflow.pipeline import Pipeline
from repro.workflow.ports import PortSpec
from repro.workflow.registry import ModuleRegistry


class Scale(Module):
    name = "Scale"
    input_ports = (PortSpec("in", "number"),)
    output_ports = (PortSpec("out", "number"),)
    parameters = (ParameterSpec("factor", 2.0),)

    def compute(self, inputs):
        return {"out": inputs["in"] * float(self.parameter_values["factor"])}


class Offset(Module):
    name = "Offset"
    input_ports = (PortSpec("in", "number"),)
    output_ports = (PortSpec("out", "number"),)
    parameters = (ParameterSpec("amount", 1.0),)

    def compute(self, inputs):
        return {"out": inputs["in"] + float(self.parameter_values["amount"])}


@pytest.fixture()
def registry():
    reg = ModuleRegistry()
    basic_package().register_all(reg)
    reg.register("t", Scale)
    reg.register("t", Offset)
    return reg


@pytest.fixture()
def affine_pipeline(registry):
    """An inner pipeline computing 3x + 10 with an open input."""
    p = Pipeline(registry)
    scale = p.add_module("Scale", {"factor": 3.0})
    offset = p.add_module("Offset", {"amount": 10.0})
    p.add_connection(scale, "out", offset, "in")
    return p, scale, offset


class TestCreateGroup:
    def test_group_computes_inner_pipeline(self, registry, affine_pipeline):
        p, scale, offset = affine_pipeline
        Group = create_group(
            "Affine", p,
            inputs=[("x", scale, "in")],
            outputs=[("y", offset, "out")],
        )
        registry.register("t", Group)
        outer = Pipeline(registry)
        const = outer.add_module("basic:Constant", {"value": 5.0})
        group = outer.add_module("Affine")
        outer.add_connection(const, "value", group, "x")
        result = Executor(caching=False).execute(outer)
        assert result.output(group, "y") == 3.0 * 5.0 + 10.0

    def test_default_outputs_from_sinks(self, registry, affine_pipeline):
        p, scale, _offset = affine_pipeline
        Group = create_group("Affine2", p, inputs=[("x", scale, "in")])
        assert [port.name for port in Group.output_ports] == ["out"]

    def test_overrides_reach_inner_modules(self, registry, affine_pipeline):
        p, scale, offset = affine_pipeline
        Group = create_group("Affine3", p, inputs=[("x", scale, "in")],
                             outputs=[("y", offset, "out")])
        registry.register("t", Group)
        outer = Pipeline(registry)
        const = outer.add_module("basic:Constant", {"value": 1.0})
        group = outer.add_module("Affine3",
                                 {"overrides": {str(scale): {"factor": 100.0}}})
        outer.add_connection(const, "value", group, "x")
        result = Executor(caching=False).execute(outer)
        assert result.output(group, "y") == 110.0

    def test_groups_compose(self, registry, affine_pipeline):
        """A group of groups: (3x + 10) applied twice."""
        p, scale, offset = affine_pipeline
        Inner = create_group("AffineInner", p, inputs=[("x", scale, "in")],
                             outputs=[("y", offset, "out")])
        registry.register("t", Inner)
        chain = Pipeline(registry)
        g1 = chain.add_module("AffineInner")
        g2 = chain.add_module("AffineInner")
        chain.add_connection(g1, "y", g2, "x")
        Outer = create_group("AffineTwice", chain, inputs=[("x", g1, "x")],
                             outputs=[("y", g2, "y")])
        registry.register("t", Outer)
        final = Pipeline(registry)
        const = final.add_module("basic:Constant", {"value": 2.0})
        group = final.add_module("AffineTwice")
        final.add_connection(const, "value", group, "x")
        result = Executor(caching=False).execute(final)
        assert result.output(group, "y") == 3.0 * (3.0 * 2.0 + 10.0) + 10.0

    def test_group_isolated_from_source_edits(self, registry, affine_pipeline):
        p, scale, offset = affine_pipeline
        Group = create_group("Frozen", p, inputs=[("x", scale, "in")],
                             outputs=[("y", offset, "out")])
        registry.register("t", Group)
        p.set_parameter(scale, "factor", 999.0)  # edit AFTER grouping
        outer = Pipeline(registry)
        const = outer.add_module("basic:Constant", {"value": 1.0})
        group = outer.add_module("Frozen")
        outer.add_connection(const, "value", group, "x")
        result = Executor(caching=False).execute(outer)
        assert result.output(group, "y") == 13.0  # still 3x + 10


class TestValidation:
    def test_unknown_inner_module(self, registry, affine_pipeline):
        p, _scale, _offset = affine_pipeline
        with pytest.raises(WorkflowError):
            create_group("Bad", p, inputs=[("x", 99, "in")])

    def test_already_connected_port_rejected(self, registry, affine_pipeline):
        p, _scale, offset = affine_pipeline
        with pytest.raises(WorkflowError, match="already"):
            create_group("Bad", p, inputs=[("x", offset, "in")])

    def test_unknown_inner_port(self, registry, affine_pipeline):
        p, scale, _ = affine_pipeline
        with pytest.raises(WorkflowError):
            create_group("Bad", p, inputs=[("x", scale, "nope")])

    def test_register_group_helper(self, registry, affine_pipeline):
        p, scale, offset = affine_pipeline
        qualified = register_group(
            registry, "groups", "AffineReg", p,
            inputs=[("x", scale, "in")], outputs=[("y", offset, "out")],
        )
        assert qualified == "groups:AffineReg"
        assert "AffineReg" in registry


class TestDV3DGroup:
    def test_group_wrapping_a_visualization_chain(self):
        """The real use: a reusable 'temperature slicer' group."""
        from repro.dv3d.view import View
        from repro.workflow.registry import global_registry
        from tests.conftest import SMALL

        registry = global_registry()
        inner = Pipeline(registry)
        reader = inner.add_module(
            "CDMSDatasetReader", {"source": "synthetic_reanalysis", "size": dict(SMALL)}
        )
        var = inner.add_module("CDMSVariableReader", {"variable": "ta"})
        plot = inner.add_module("Slicer")
        cell = inner.add_module("DV3DCell", {"width": 32, "height": 24})
        inner.add_connection(reader, "dataset", var, "dataset")
        inner.add_connection(var, "variable", plot, "variable")
        inner.add_connection(plot, "plot", cell, "plot")
        Group = create_group(
            "TemperatureSlicerCell", inner,
            outputs=[("cell", cell, "cell")],
        )
        registry.register("groups", Group, overwrite=True)
        outer = Pipeline(registry)
        gid = outer.add_module("TemperatureSlicerCell")
        result = Executor(caching=False).execute(outer)
        live = result.output(gid, "cell")
        assert View(32, 24).draw(live).to_uint8().shape == (24, 32, 3)
