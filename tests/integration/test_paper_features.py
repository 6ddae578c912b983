"""Integration tests: each test exercises one claim from the paper text,
end-to-end across subsystems."""

import numpy as np
import pytest

from repro.app.application import Application
from repro.dv3d.animation import Animator
from repro.dv3d.view import View
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.provenance.query import diff_versions
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain

SIZE = {"nlat": 12, "nlon": 16, "nlev": 4, "ntime": 3}


@pytest.fixture()
def app(registry):
    application = Application(registry)
    application.new_project("paper")
    return application


class TestSectionIIIG_WorkflowChain:
    """§III.G: CDMS access → processing → translation → plot → cell."""

    def test_full_chain_with_cdat_processing(self, registry):
        p = Pipeline(registry)
        reader = p.add_module("CDMSDatasetReader",
                              {"source": "synthetic_reanalysis", "size": SIZE})
        var = p.add_module("CDMSVariableReader", {"variable": "ta"})
        anom = p.add_module("CDATOperation", {"operation": "anomalies"})
        plot = p.add_module("Slicer")
        cell = p.add_module("DV3DCell", {"width": 40, "height": 30})
        p.add_connection(reader, "dataset", var, "dataset")
        p.add_connection(var, "variable", anom, "variable")
        p.add_connection(anom, "variable", plot, "variable")
        p.add_connection(plot, "plot", cell, "plot")
        result = Executor(caching=True).execute(p)
        live = result.output(cell, "cell")
        assert View(40, 30).draw(live).to_uint8().shape == (30, 40, 3)
        # the plot shows the anomaly variable, not raw temperature
        assert "anom" in live.plot.variable.id


class TestSectionIIIF_Provenance:
    """§III.F: all configuration saved; revert; multiple branches."""

    def test_interactive_configuration_recorded_and_revertible(self, app):
        app.create_plot(
            "Volume", "main", (0, 0),
            dataset_source="synthetic_reanalysis",
            variables={"variable": "ta"}, size=SIZE,
            cell_params={"width": 32, "height": 24},
        )
        vistrail = next(iter(app.project.vistrails.values()))
        baseline = vistrail.current_version
        # an interactive leveling gesture, recorded as a parameter change
        cell_module = app.project.sheets["main"].get(0, 0).binding.sink_module_id
        live = app.project.sheets["main"].get(0, 0).cell
        delta = live.plot.handle_drag(0.1, 0.0, "leveling")
        plot_module = vistrail.pipeline.modules_of_type("dv3d:VolumeRender")[0]
        vistrail.set_parameter(plot_module, "state",
                               {"tf_center": delta["tf_center"], "tf_width": delta["tf_width"]})
        leveled = vistrail.current_version
        # branch: back up and configure differently
        vistrail.checkout(baseline)
        vistrail.set_parameter(plot_module, "state", {"tf_center": 0.2, "tf_width": 0.1})
        branched = vistrail.current_version
        diff = diff_versions(vistrail.tree, leveled, branched)
        assert diff["common_ancestor"] == [f"version {baseline}"]
        # both branches re-execute to their own configurations
        ex = Executor(caching=False)
        for version, expected_center in ((leveled, delta["tf_center"]), (branched, 0.2)):
            pipeline = vistrail.tree.materialize(version, vistrail.registry)
            out = ex.execute(pipeline, targets=[cell_module])
            live_cell = out.output(cell_module, "cell")
            assert live_cell.plot.transfer.center == pytest.approx(expected_center)

    def test_any_analysis_product_regenerable(self, app, tmp_path):
        """'enabling users to readily regenerate any analysis product'"""
        cell = app.create_plot(
            "Slicer", "main", (0, 0),
            dataset_source="synthetic_reanalysis",
            variables={"variable": "ta"}, size=SIZE,
            cell_params={"width": 40, "height": 30},
        )
        original = cell.render(40, 30).to_uint8()
        app.project.save(tmp_path / "saved")
        from repro.spreadsheet.project import Project

        reloaded = Project.load(tmp_path / "saved", app.registry)
        regenerated = reloaded.execute_cell("main", 0, 0).render(40, 30).to_uint8()
        np.testing.assert_array_equal(original, regenerated)


class TestSectionIIID_PlotFeatures:
    """§III.D: animation, stereo, synchronized spreadsheet cells."""

    def test_4d_browsing_by_animation(self, reanalysis):
        from repro.dv3d.slicer import SlicerPlot

        plot = SlicerPlot(reanalysis("ta"), enabled_planes=("z",))
        frames = Animator(plot).render_frames(width=24, height=18)
        assert len(frames) == plot.n_timesteps
        assert any(
            not np.array_equal(frames[i], frames[i + 1])
            for i in range(len(frames) - 1)
        )

    def test_stereo_rendering(self, reanalysis):
        from repro.dv3d.isosurface import IsosurfacePlot
        from repro.rendering.scene import Renderer

        plot = IsosurfacePlot(reanalysis("ta"))
        scene = plot.build_scene()
        left, right = Renderer(32, 24).render_stereo(scene, plot.default_camera())
        assert not np.array_equal(left.to_uint8(), right.to_uint8())

    def test_multiple_synchronized_plots(self, app):
        for col, template in enumerate(["Slicer", "Volume"]):
            app.create_plot(
                template, "main", (0, col),
                dataset_source="synthetic_reanalysis",
                variables={"variable": "ta"}, size=SIZE,
                cell_params={"width": 24, "height": 18},
            )
        group = app.sync_group("main")
        deltas = group.key("c")  # colormap cycles on both plot types
        assert len(deltas) == 2
        names = {c.plot.colormap.name for c in app.project.sheets["main"].live_cells()}
        assert len(names) == 1  # both cycled to the same next map


class TestSectionIIIH_Hyperwall:
    """§III.H: server reduced-res mirror + full-res clients + propagation."""

    def test_fifteen_cell_scenario_partitioned(self, registry):
        from repro.hyperwall.display import NCCS_WALL
        from repro.hyperwall.partition import partition_by_cell

        p = Pipeline(registry)
        for _ in range(15):
            build_cell_chain(p, width=32, height=24)
        partitions = partition_by_cell(p)
        assert len(partitions) == 15
        assert NCCS_WALL.n_tiles == 15
        for cell_id, sub in partitions.items():
            assert len(sub.modules) == 4  # exactly one chain each

    def test_server_mirror_low_res_clients_full_res(self, registry):
        p = Pipeline(registry)
        for _ in range(2):
            build_cell_chain(p, width=64, height=64)
        hw = InProcessHyperwall(
            p, WallGeometry(2, 1, tile_width=64, tile_height=64), reduction=4
        )
        out = hw.execute_all()
        server_shapes = list(out["server"]["image_shapes"].values())
        assert all(s == [16, 16, 3] for s in server_shapes)
        assert all(r["image_shape"] == [64, 64, 3] for r in out["clients"])

    def test_interaction_propagates_server_to_clients(self, registry):
        p = Pipeline(registry)
        for _ in range(2):
            build_cell_chain(p, width=32, height=24)
        hw = InProcessHyperwall(
            p, WallGeometry(2, 1, tile_width=32, tile_height=24), reduction=2
        )
        hw.execute_all()
        result = hw.broadcast_event("key", key="t")  # animation step
        assert len(result["server"]) == 2 and len(result["clients"]) == 2
        assert all(hw.consistency_check().values())


class TestESGPath:
    """§III.G: data 'from ... the Earth System Grid Federation'."""

    def test_discover_fetch_visualize(self, registry):
        app = Application(registry)
        app.new_project("esg")
        hits = app.esg.search("wave")
        assert hits
        ds = app.open_esg_dataset("wave_case_study")
        from repro.dv3d.hovmoller import HovmollerSlicerPlot

        plot = HovmollerSlicerPlot(ds("olr_anom"))
        fb = plot.render(32, 24)
        assert fb.color.shape == (24, 32, 3)
        assert app.esg.transfers[0].dataset_id == "wave_case_study"
