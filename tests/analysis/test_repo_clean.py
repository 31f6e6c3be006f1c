"""The real tree stays reprolint-clean, and the rules have teeth:
deleting any one checkpointed attribute from a real component's
state_dict makes RPR001 fire."""

import ast
from pathlib import Path

import pytest

from repro.analysis.config import Config
from repro.analysis.rules import build_rules
from repro.analysis.runner import Analyzer, collect_files, relpath_for

REPO = Path(__file__).resolve().parents[2]

#: Every stream/serve module that ships a state_dict-bearing component.
COMPONENT_FILES = [
    "src/repro/stream/buffers.py",
    "src/repro/stream/scaler.py",
    "src/repro/stream/mitigation.py",
    "src/repro/stream/detector.py",
    "src/repro/serve/reorder.py",
]


def _analyze(source: str, relpath: str):
    analyzer = Analyzer(build_rules(Config()))
    findings, _ = analyzer.analyze_source(source, relpath)
    return findings


class TestRepoClean:
    def test_src_tree_has_no_findings(self):
        """Mirrors CI: `python -m repro.analysis src/` must stay clean."""
        config = Config()
        analyzer = Analyzer(build_rules(config))
        findings = []
        for path in collect_files([str(REPO / "src")], config):
            file_findings, _ = analyzer.analyze_file(path)
            findings.extend(file_findings)
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.code} {f.message}" for f in findings
        )


def _state_dict_attrs(tree: ast.Module):
    """(class_name, attr) for every self.<attr> read in a state_dict."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "state_dict":
                attrs = {
                    sub.attr
                    for sub in ast.walk(item)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                }
                out.extend((node.name, attr) for attr in sorted(attrs))
    return out


class _DropAttr(ast.NodeTransformer):
    """Rename self.<attr> to self.<attr>_dropped inside one class's
    state_dict/load_state_dict, simulating a forgotten checkpoint entry."""

    def __init__(self, class_name: str, attr: str):
        self.class_name = class_name
        self.attr = attr
        self._in_target_class = False
        self._in_state_method = False

    def visit_ClassDef(self, node):
        outer = self._in_target_class
        self._in_target_class = node.name == self.class_name
        self.generic_visit(node)
        self._in_target_class = outer
        return node

    def visit_FunctionDef(self, node):
        outer = self._in_state_method
        if self._in_target_class and node.name in ("state_dict", "load_state_dict"):
            self._in_state_method = True
        self.generic_visit(node)
        self._in_state_method = outer
        return node

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if (
            self._in_state_method
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr == self.attr
        ):
            node.attr = f"{self.attr}_dropped"
        return node


def _mutation_cases():
    for rel in COMPONENT_FILES:
        source = (REPO / rel).read_text()
        for class_name, attr in _state_dict_attrs(ast.parse(source)):
            yield pytest.param(rel, class_name, attr, id=f"{class_name}.{attr}")


@pytest.mark.parametrize(("rel", "class_name", "attr"), _mutation_cases())
class TestRPR001HasTeeth:
    def test_dropping_attr_from_state_dict_fires(self, rel, class_name, attr):
        path = REPO / rel
        tree = ast.parse(path.read_text())
        mutated = ast.unparse(_DropAttr(class_name, attr).visit(tree))
        findings = _analyze(mutated, relpath_for(str(path)))
        rpr001 = {
            f.detail
            for f in findings
            if f.code == "RPR001" and f.detail.startswith(f"{class_name}.")
        }
        assert f"{class_name}.{attr}" in rpr001, (
            f"removing {class_name}.{attr} from state_dict did not trip RPR001"
        )
