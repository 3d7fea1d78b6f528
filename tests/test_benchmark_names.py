"""The names the benchmark calls into volsynth resolve, and its calls bind.

``perfbench/`` is read as source, not imported or changed: its tracer's
``TARGETS``, every ``vs.<module>.<name>`` its workloads look up and the
arguments they call it with, and the CLI subcommands and flags they run. A
deletion or a changed signature that breaks the benchmark fails here.
"""

import ast
import importlib
import inspect
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


def workload_calls():
    """("module:name", line, positional count, keyword names) of every
    ``vs.<module>.<name>(...)`` call in perfbench/workloads.py without ``*`` or ``**``."""
    calls = []
    for node in ast.walk(parsed("workloads.py")):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute) and is_vs(func.value.value)
                and not any(isinstance(a, ast.Starred) for a in node.args)
                and all(k.arg is not None for k in node.keywords)):
            calls.append((f"{func.value.attr}:{func.attr}", node.lineno, len(node.args),
                          [k.arg for k in node.keywords]))
    return sorted(calls)


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
    assert {(target, positional) for target, _, positional, _ in workload_calls()} >= {
        ("gmm:save_gmm", 2), ("cvae:save_cvae", 2), ("icwgan:save_gan", 6), ("cli:main", 1)}


@pytest.mark.parametrize("target, line, positional, keywords", workload_calls(),
                         ids=[f"{target}@{line}" for target, line, _, _ in workload_calls()])
def test_a_call_the_benchmark_makes_binds_to_its_signature(target, line, positional,
                                                             keywords):
    """Binding raises TypeError for a call the callee's signature does not take."""
    inspect.signature(resolve(target)).bind(*range(positional), **dict.fromkeys(keywords))


@pytest.mark.parametrize("command, flags", workload_commands(),
                         ids=[command for command, _ in workload_commands()])
def test_a_command_the_benchmark_runs_takes_its_flags(command, flags):
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert command in subparsers.choices
    assert set(flags) <= set(subparsers.choices[command]._option_string_actions)
