"""Documentation consistency: the docs reference things that exist."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/PROTOCOL.md", "docs/SIMULATOR.md"):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 500, f"{name} looks stubby"


def test_design_md_experiment_benches_exist():
    """Every bench target named in DESIGN.md's experiment index exists."""
    text = (ROOT / "DESIGN.md").read_text()
    targets = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
    assert len(targets) >= 12
    for target in targets:
        assert (ROOT / "benchmarks" / target).exists(), target


def test_design_md_modules_exist():
    """Every module name in DESIGN.md's inventory exists somewhere in src."""
    text = (ROOT / "DESIGN.md").read_text()
    existing = {path.name
                for folder in ("src", "tests", "benchmarks", "examples")
                for path in (ROOT / folder).rglob("*.py")}
    for module in re.findall(r"(\w+\.py)\b", text):
        if module in ("conflict.py", "livelock.py"):
            continue  # explicitly documented as dissolved into other homes
        assert module in existing, module


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for script in re.findall(r"examples/(\w+\.py)", text):
        assert (ROOT / "examples" / script).exists(), script


def test_every_paper_figure_has_a_bench():
    """One bench file per evaluation figure/table (DESIGN deliverable d)."""
    bench_dir = ROOT / "benchmarks"
    expected = ["fig03", "fig09", "fig10", "fig11", "fig12a", "fig12b",
                "fig13", "fig14", "fig15", "table04", "sec06",
                "char_llc", "char_false"]
    names = "\n".join(path.name for path in bench_dir.glob("test_*.py"))
    for token in expected:
        assert token in names, f"no bench for {token}"


def test_every_public_module_has_a_docstring():
    import importlib

    modules = [
        "repro", "repro.config", "repro.runner", "repro.experiments",
        "repro.trace", "repro.cli",
        "repro.sim.engine", "repro.sim.events", "repro.sim.random",
        "repro.sim.stats",
        "repro.hardware.bloom", "repro.hardware.cache",
        "repro.hardware.directory", "repro.hardware.nic",
        "repro.hardware.dram", "repro.hardware.cost",
        "repro.hardware.energy", "repro.hardware.crc",
        "repro.net.fabric", "repro.net.messages",
        "repro.cluster.address", "repro.cluster.record",
        "repro.cluster.memory", "repro.cluster.node",
        "repro.cluster.cluster",
        "repro.core.api", "repro.core.base", "repro.core.baseline",
        "repro.core.hades", "repro.core.hades_hybrid",
        "repro.core.replication", "repro.core.txn",
        "repro.kvs.base", "repro.kvs.hashtable", "repro.kvs.btree",
        "repro.kvs.bplustree", "repro.kvs.ordered_map",
        "repro.workloads.base", "repro.workloads.micro",
        "repro.workloads.ycsb", "repro.workloads.tpcc",
        "repro.workloads.tatp", "repro.workloads.smallbank",
        "repro.workloads.mixes",
        "repro.analysis.overheads", "repro.analysis.bloom_analysis",
        "repro.analysis.report",
        "repro.verify.serializability",
    ]
    for name in modules:
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__) > 40, name


def test_cli_docstring_lists_every_subcommand():
    """repro.cli's module docstring names exactly the parser's
    subcommands, in the parser's order."""
    import argparse

    from repro import cli

    parser = cli.build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    documented = re.findall(r"^\* ``(\w+)``", cli.__doc__, flags=re.M)
    assert documented == list(subcommands)
