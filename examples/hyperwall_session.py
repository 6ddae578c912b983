"""A hyperwall session: the Fig. 5 distributed deployment, simulated.

"In a typical scenario the user would open (or construct) a workflow
with 15 cell modules on the server node.  At execution time the server
instance sends edited versions of the workflow to each client node for
local execution. ... The server instance executes a reduced resolution
instance of the full (15-cell) workflow, whereas each client instance
executes a full resolution 1-cell sub-workflow."

This example builds a 15-cell workflow (five variables × three plot
types), runs it on the real socket-based cluster (client processes on
this machine standing in for the wall's display nodes), propagates an
interaction, and reports the resolution arithmetic of the paper's wall.

Run:  python examples/hyperwall_session.py
"""

from repro.dv3d.interaction import Gesture
from repro.hyperwall.cluster import LocalCluster
from repro.hyperwall.display import NCCS_WALL, WallGeometry
from repro.workflow.pipeline import Pipeline

SIZE = {"nlat": 23, "nlon": 36, "nlev": 8, "ntime": 4}
VARIABLES = ["ta", "zg", "ua", "va", "hus"]
PLOTS = ["Slicer", "VolumeRender", "Isosurface"]


def build_wall_workflow() -> Pipeline:
    """15 cells: each variable through each plot type (5 × 3)."""
    pipeline = Pipeline()
    reader = pipeline.add_module(
        "CDMSDatasetReader", {"source": "synthetic_reanalysis", "size": SIZE}
    )
    for variable in VARIABLES:
        var = pipeline.add_module("CDMSVariableReader", {"variable": variable})
        pipeline.add_connection(reader, "dataset", var, "dataset")
        for plot_type in PLOTS:
            plot = pipeline.add_module(plot_type)
            cell = pipeline.add_module("DV3DCell", {"width": 128, "height": 128,
                                                    "dataset_label": variable.upper()})
            pipeline.add_connection(var, "variable", plot, "variable")
            pipeline.add_connection(plot, "plot", cell, "plot")
    return pipeline


def main() -> None:
    wall = WallGeometry(columns=5, rows=3, tile_width=128, tile_height=128)
    print(f"paper wall: {NCCS_WALL.columns}x{NCCS_WALL.rows} tiles, "
          f"{NCCS_WALL.total_pixels / 1e6:.1f} Mpixel "
          f"(simulated here at {wall.tile_width}² per tile)")

    workflow = build_wall_workflow()
    print(f"server workflow: {len(workflow.modules)} modules, "
          f"{len(workflow.connections)} connections, 15 cells")

    cluster = LocalCluster(workflow, n_clients=15, wall=wall, reduction=4)
    try:
        cluster.start()
        print("15 client processes connected")
        session = cluster.run_session(
            events=[
                Gesture("key", {"key": "c"}),          # colormap cycle
                Gesture("key", {"key": "t"}),          # animation step
                Gesture("drag", {"dx": 0.15, "dy": 0.0, "mode": "camera"}),
            ]
        )
    finally:
        cluster.stop()

    print(f"\nserver executed its reduced-resolution mirror in "
          f"{session['server']['duration']:.2f}s "
          f"({session['server']['n_cells']} cells at 1/4 resolution)")
    total_client = sum(r["duration"] for r in session["clients"])
    print(f"clients executed 15 full-resolution sub-workflows: "
          f"wall-clock {session['clients_wall_time']:.2f}s, "
          f"sum of per-client time {total_client:.2f}s")
    shapes = {tuple(r["image_shape"]) for r in session["clients"]}
    print(f"client tile renders: {shapes}")
    print(f"propagated {len(session['events'])} gestures to all "
          f"{len(session['clients'])} displays")


if __name__ == "__main__":
    main()
