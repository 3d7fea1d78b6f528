"""The names the benchmark calls into volsynth resolve.

``perfbench/`` is read as source, not imported or changed: its tracer's
``TARGETS``, every ``vs.<module>.<name>`` its workloads look up, and the CLI
subcommands and flags they run. A deletion that breaks the benchmark fails here.
"""

import ast
import importlib
import os

import pytest

from volsynth import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def parsed(name):
    with open(os.path.join(PERFBENCH, name)) as fh:
        return ast.parse(fh.read())


def tracer_targets():
    for node in parsed("tracing.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [target for _, target in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py has no TARGETS list")


def is_vs(node):
    """``vs`` or ``<anything>.vs``: the workloads' handle on the volsynth package."""
    return (isinstance(node, ast.Name) and node.id == "vs"
            or isinstance(node, ast.Attribute) and node.attr == "vs")


def workload_lookups():
    """Every ``vs.<module>.<name>`` in perfbench/workloads.py, as "module:name"."""
    return sorted({f"{node.value.attr}:{node.attr}"
                   for node in ast.walk(parsed("workloads.py"))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                   and is_vs(node.value.value)})


def workload_commands():
    """(subcommand, its --flags) of every ``cli(vs, "<subcommand>", ...)`` call."""
    calls = []
    for node in ast.walk(parsed("workloads.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "cli" and len(node.args) > 1):
            words = [a.value for a in node.args[1:]
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            calls.append((words[0], sorted(w for w in words[1:] if w.startswith("--"))))
    return calls


def resolve(target):
    module_name, attr = target.split(":")
    owner = importlib.import_module(f"volsynth.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("target", sorted(set(tracer_targets() + workload_lookups())))
def test_a_name_the_benchmark_uses_resolves(target):
    assert resolve(target) is not None


def test_the_benchmark_reads_names_from_both_files():
    """Guards the parsing above: it finds the calls the benchmark is known to make."""
    assert {"harness:run_regime", "cvae:train_cvae"} <= set(tracer_targets())
    assert {"gmm:fit_class_gmms", "cvae:train_cvae", "cli:main"} <= set(workload_lookups())
    assert {sub for sub, _ in workload_commands()} >= {"sample", "augment-eval", "report"}


@pytest.mark.parametrize("command, flags", workload_commands(),
                         ids=[command for command, _ in workload_commands()])
def test_a_command_the_benchmark_runs_takes_its_flags(command, flags):
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert command in subparsers.choices
    assert set(flags) <= set(subparsers.choices[command]._option_string_actions)
