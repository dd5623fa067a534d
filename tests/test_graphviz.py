"""DOT export of the annotated task graph (`repro.report.graphviz`).

The text renderer is well covered; these tests give the DOT renderer
the same treatment: structural invariants (unique node ids, every edge
endpoint defined), label content (bound, timing model, context
policy), and snapshot determinism.
"""

import re

import pytest

from repro.cfg.contexts import parse_policy
from repro.report import wcet_dot
from repro.workloads.suite import analyze_workload, get_workload

NODE_PATTERN = re.compile(r"^  (\w+) \[label=", re.MULTILINE)
EDGE_PATTERN = re.compile(r"^  (\w+) -> (\w+) \[", re.MULTILINE)


@pytest.fixture(scope="module")
def result():
    return analyze_workload(get_workload("bs"),
                            context_policy=parse_policy("vivu@1"),
                            pipeline_model="krisc5")


@pytest.fixture(scope="module")
def dot(result):
    return wcet_dot(result)


def test_dot_is_a_digraph(dot):
    assert dot.startswith("digraph wcet {")
    assert dot.rstrip().endswith("}")


def test_node_ids_are_unique_and_cover_the_graph(result, dot):
    ids = NODE_PATTERN.findall(dot)
    assert len(ids) == result.graph.node_count()
    assert len(set(ids)) == len(ids)


def test_every_edge_references_a_defined_node(dot):
    ids = set(NODE_PATTERN.findall(dot))
    edges = EDGE_PATTERN.findall(dot)
    assert edges
    for source, target in edges:
        assert source in ids
        assert target in ids


def test_graph_label_names_bound_model_and_policy(result, dot):
    label_line = next(line for line in dot.splitlines()
                      if "label=\"WCET" in line)
    assert f"WCET {result.wcet_cycles} cyc" in label_line
    assert "krisc5 timing model" in label_line
    assert result.graph.policy.describe() in label_line


def test_peeled_contexts_get_distinct_nodes(result, dot):
    # VIVU peeling marks first-iteration copies; their context labels
    # must appear in the rendered nodes.
    assert ".it0]" in dot
    peeled = [node for node in result.graph.nodes()
              if node.context.iters]
    assert peeled
    ids = NODE_PATTERN.findall(dot)
    assert len(ids) == result.graph.node_count()


def test_worst_case_path_nodes_are_highlighted(result, dot):
    counts = result.path.path.node_counts
    assert any(count > 0 for count in counts.values())
    assert "color=red" in dot
    assert "penwidth=2.0" in dot


def test_include_instructions_expands_labels(result):
    bare = wcet_dot(result)
    full = wcet_dot(result, include_instructions=True)
    assert len(full) > len(bare)


def test_dot_output_is_deterministic(result):
    assert wcet_dot(result) == wcet_dot(result)


def test_dot_shows_edge_extra_cycles(dot):
    # Taken-branch edges carry extra cycles under both timing models.
    assert re.search(r"\(\+\d+ cyc\)", dot)
