"""The application: the object behind the UV-CDAT main window.

One :class:`Application` instance corresponds to one running UV-CDAT:
it owns projects (project view), the plot palette (plot view), the
variable workspace + calculator (right-hand panels), the ESG federation
handle, and the module registry.  Its convenience methods script the
common GUI gesture end-to-end: pick a plot from the palette, drop it on
a spreadsheet slot, execute it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.app.calculator import Calculator
from repro.app.plot_palette import PlotPalette
from repro.app.variable_view import VariableView
from repro.cdms.dataset import Dataset
from repro.dv3d.cell import DV3DCell
from repro.esg.federation import ESGFederation, default_federation
from repro.spreadsheet.project import Project
from repro.spreadsheet.sheet import CellBinding
from repro.spreadsheet.sync import SyncGroup
from repro.util.errors import SpreadsheetError
from repro.workflow.registry import ModuleRegistry


class Application:
    """A headless UV-CDAT session."""

    def __init__(self, registry: Optional[ModuleRegistry] = None) -> None:
        from repro.workflow.registry import global_registry

        self.registry = registry or global_registry()
        self.projects: Dict[str, Project] = {}
        self.current_project: Optional[str] = None
        self.palette = PlotPalette()
        self.variables = VariableView()
        self.calculator = Calculator(self.variables)
        self.esg: ESGFederation = default_federation()
        self._sync_groups: Dict[Tuple[str, str], SyncGroup] = {}

    # -- project view ------------------------------------------------------

    def new_project(self, name: str) -> Project:
        if name in self.projects:
            raise SpreadsheetError(f"project {name!r} already exists")
        project = Project(name, self.registry)
        self.projects[name] = project
        self.current_project = name
        return project

    @property
    def project(self) -> Project:
        if self.current_project is None:
            raise SpreadsheetError("no current project; call new_project() first")
        return self.projects[self.current_project]

    # -- data access -------------------------------------------------------------

    def open_esg_dataset(self, dataset_id: str) -> Dataset:
        """Discover and fetch a dataset from the (simulated) ESG."""
        return self.esg.fetch(dataset_id)

    # -- the headline gesture: palette → spreadsheet slot -----------------------------

    def create_plot(
        self,
        template_name: str,
        sheet_name: str,
        slot: Tuple[int, int],
        dataset_source: str,
        variables: Dict[str, str],
        size: Optional[Dict[str, int]] = None,
        selector: Optional[Dict[str, Any]] = None,
        cell_params: Optional[Dict[str, Any]] = None,
        execute: bool = True,
    ) -> Optional[DV3DCell]:
        """Drop a palette plot onto a spreadsheet slot.

        Builds the workflow in a fresh vistrail (all steps recorded as
        provenance), tags the version, binds the slot, and (by default)
        executes it.  Returns the live cell when executed.
        """
        project = self.project
        if sheet_name not in project.sheets:
            project.new_sheet(sheet_name)
        sheet = project.sheets[sheet_name]
        template = self.palette.get(template_name)
        vt_name = f"{sheet_name}_{slot[0]}_{slot[1]}_{template_name}".lower()
        vistrail = project.new_vistrail(vt_name)
        ids = template.instantiate(
            vistrail, dataset_source, variables,
            size=size, selector=selector, cell_params=cell_params,
        )
        vistrail.tag(f"{template_name} of {'/'.join(sorted(variables.values()))}")
        binding = CellBinding(vt_name, vistrail.current_version, ids["cell"])
        sheet.place(slot[0], slot[1], binding)
        if execute:
            return project.execute_cell(sheet_name, slot[0], slot[1])
        return None

    # -- synchronized interaction ---------------------------------------------------

    def sync_group(self, sheet_name: str) -> SyncGroup:
        """The propagation group for one sheet of the current project."""
        key = (self.current_project or "", sheet_name)
        if key not in self._sync_groups:
            self._sync_groups[key] = SyncGroup(self.project.sheets[sheet_name])
        return self._sync_groups[key]

    # -- introspection for the panels --------------------------------------------------

    def plot_view(self) -> Dict[str, str]:
        """Contents of the plot palette panel."""
        return self.palette.describe()

    def variable_view(self) -> Dict[str, Dict[str, Any]]:
        """Contents of the variable panel."""
        return self.variables.summary()

    def project_view(self) -> Dict[str, List[str]]:
        """Contents of the project panel: sheets and vistrails per project."""
        return {
            name: sorted(project.sheets) + [f"vistrail:{v}" for v in sorted(project.vistrails)]
            for name, project in sorted(self.projects.items())
        }
