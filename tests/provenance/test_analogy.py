"""Analogies: transplanting a branch's delta onto another version."""

import pytest

from repro.provenance.analogy import apply_analogy, branch_actions
from repro.provenance.vistrail import Vistrail
from repro.util.errors import ProvenanceError
from repro.workflow.module import Module, ParameterSpec
from repro.workflow.ports import PortSpec
from repro.workflow.registry import ModuleRegistry


class Reader(Module):
    name = "Reader"
    output_ports = (PortSpec("out", "data"),)
    parameters = (ParameterSpec("path", ""),)

    def compute(self, inputs):
        return {"out": self.parameter_values["path"]}


class View(Module):
    name = "View"
    input_ports = (PortSpec("in", "data", optional=True),)
    output_ports = (PortSpec("out", "data"),)
    parameters = (ParameterSpec("colormap", "default"), ParameterSpec("level", 0.5))

    def compute(self, inputs):
        return {"out": self.parameter_values["colormap"]}


@pytest.fixture()
def registry():
    reg = ModuleRegistry()
    reg.register("t", Reader)
    reg.register("t", View)
    return reg


def build_two_workflows(registry):
    """One vistrail holding two sibling workflows (branches from root)."""
    vt = Vistrail("analogy", registry)
    # workflow A: reader + view
    reader_a = vt.add_module("Reader", {"path": "a.nc"})
    view_a = vt.add_module("View")
    vt.add_connection(reader_a, "out", view_a, "in")
    vt.tag("A-base")
    a_base = vt.current_version
    # refine A: the delta we will transplant
    vt.set_parameter(view_a, "colormap", "jet")
    vt.set_parameter(view_a, "level", 0.85)
    vt.tag("A-refined")
    a_refined = vt.current_version
    # workflow B: an independent branch from root with its own modules
    vt.checkout(0)
    reader_b = vt.add_module("Reader", {"path": "b.nc"})
    view_b = vt.add_module("View")
    vt.add_connection(reader_b, "out", view_b, "in")
    vt.tag("B-base")
    return vt, a_base, a_refined, vt.current_version, view_b


class TestBranchActions:
    def test_delta_extracted_in_order(self, registry):
        vt, a_base, a_refined, _b, _ = build_two_workflows(registry)
        delta = branch_actions(vt, a_base, a_refined)
        assert len(delta) == 2
        assert delta[0].describe().startswith("set")

    def test_non_ancestor_rejected(self, registry):
        vt, a_base, a_refined, b_base, _ = build_two_workflows(registry)
        with pytest.raises(ProvenanceError, match="ancestor"):
            branch_actions(vt, b_base, a_refined)


class TestApplyAnalogy:
    def test_transplants_parameter_changes(self, registry):
        vt, a_base, a_refined, b_base, view_b = build_two_workflows(registry)
        report = apply_analogy(vt, a_base, a_refined, b_base)
        assert report.fully_applied
        assert len(report.applied) == 2
        # B's view module now carries A's refinements
        assert vt.pipeline.modules[view_b].parameters["colormap"] == "jet"
        assert vt.pipeline.modules[view_b].parameters["level"] == 0.85
        # B's own reader is untouched
        readers = vt.pipeline.modules_of_type("Reader")
        assert vt.pipeline.modules[readers[0]].parameters["path"] == "b.nc"

    def test_analogy_recorded_as_new_versions(self, registry):
        vt, a_base, a_refined, b_base, _ = build_two_workflows(registry)
        before = len(vt.tree)
        report = apply_analogy(vt, a_base, a_refined, b_base)
        assert len(vt.tree) == before + 2
        assert report.new_version == vt.current_version
        assert report.new_version != b_base

    def test_added_module_gets_fresh_id(self, registry):
        vt = Vistrail("x", registry)
        base = vt.current_version
        overlay = vt.add_module("View", {"colormap": "extra"})
        refined = vt.current_version
        vt.checkout(base)
        vt.add_module("Reader")
        destination = vt.current_version
        report = apply_analogy(vt, base, refined, destination)
        assert any("add module" in line for line in report.applied)
        views = vt.pipeline.modules_of_type("View")
        assert len(views) == 1
        assert views[0] != overlay  # a fresh id, not the original

    def test_inapplicable_action_skipped_not_fatal(self, registry):
        vt = Vistrail("x", registry)
        # delta edits a View that the destination does not have
        view = vt.add_module("View")
        base_with_view = vt.current_version
        vt.set_parameter(view, "colormap", "jet")
        refined = vt.current_version
        vt.checkout(0)
        vt.add_module("Reader")
        destination = vt.current_version
        report = apply_analogy(vt, base_with_view, refined, destination)
        assert not report.fully_applied
        assert report.skipped
        assert "colormap" in report.skipped[0][0]

    def test_ambiguous_target_type_uses_original_id_if_valid(self, registry):
        # destination has TWO View modules → type-mapping is ambiguous;
        # the action falls back to the original id, which doesn't exist
        # there, so it is skipped (best-effort, reported)
        vt = Vistrail("x", registry)
        view = vt.add_module("View")
        base = vt.current_version
        vt.set_parameter(view, "level", 0.9)
        refined = vt.current_version
        vt.checkout(0)
        vt.add_module("View")
        vt.add_module("View")
        destination = vt.current_version
        report = apply_analogy(vt, base, refined, destination)
        # either applied to the same-id module (if ids coincide) or skipped;
        # never raises, and the report accounts for the action
        assert len(report.applied) + len(report.skipped) == 1
