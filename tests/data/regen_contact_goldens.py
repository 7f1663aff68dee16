#!/usr/bin/env python
"""Regenerate tests/data/contact_goldens.json (contact-level goldens).

The goldens pin, for every contact policy at a seeded 1000 s run on the
paper topology, plus one satellite-pass plan replay:

* every :class:`ContactSimResult` field except ``config``;
* the sha256 of ``collector.delays()`` and of the per-node state (each
  node's ``QueueStats``, ``transfers_in``/``transfers_out``, buffer
  contents, consumed ids and, for FAD, the xi estimator's
  ``(_xi, _last_event)``), see :func:`contact_state`;

and the sha256 of one traced FAD run's JSONL file.
``tests/test_contact_goldens.py`` replays them and asserts equality, so
a change to the exchange loop that perturbs any seeded outcome fails.
Regenerate only after an intentional, understood change to seeded
contact-level semantics::

    PYTHONPATH=src python tests/data/regen_contact_goldens.py
"""

import dataclasses
import hashlib
import json
import pathlib
import tempfile

from repro.contact.policies import LazyXiEstimator
from repro.contact.simulator import ContactSimConfig, ContactSimulation
from repro.protocols.registry import contact_policy_names
from repro.scenario.registry import get_scenario, scenario_contact_config

GOLDEN_PATH = pathlib.Path(__file__).parent / "contact_goldens.json"

#: Seed of every golden run (the benchmark's first contact-fad replicate).
SEED = 1000

#: Simulated seconds of every policy's run.
DURATION_S = 1000.0


def golden_configs():
    """Golden name -> config: each policy, then one plan replay."""
    configs = {policy: ContactSimConfig(policy=policy, seed=SEED,
                                        duration_s=DURATION_S)
               for policy in sorted(contact_policy_names())}
    configs["satellite-pass/fad"] = scenario_contact_config(
        get_scenario("satellite-pass"), policy="fad", seed=3)
    return configs


#: The traced run whose file bytes are pinned.
TRACE_CONFIG = dict(policy="fad", seed=SEED, duration_s=300.0)


def contact_state(sim, result):
    """Everything a seeded contact-level run leaves behind, as plain data."""
    nodes = {}
    for nid, policy in sorted(sim.policies.items()):
        node = {
            "stats": dataclasses.asdict(policy.queue.stats),
            "transfers_in": policy.transfers_in,
            "transfers_out": policy.transfers_out,
            "buffer": [[c.message_id, c.ftd, c.hops, c.received_at]
                       for c in policy.queue],
            "delivered_seen": sorted(policy.delivered_seen),
        }
        estimator = getattr(policy, "estimator", None)
        if isinstance(estimator, LazyXiEstimator):
            node["xi"] = [estimator._xi, estimator._last_event]
        nodes[str(nid)] = node
    return {
        "result": {f.name: getattr(result, f.name)
                   for f in dataclasses.fields(result) if f.name != "config"},
        "delays": sim.collector.delays(),
        "nodes": nodes,
    }


def digest(obj):
    """sha256 of ``obj``'s canonical JSON (floats at full precision)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_entry(config):
    """The pinned record of one run of ``config``."""
    sim = ContactSimulation(config)
    state = contact_state(sim, sim.run())
    return {"result": state["result"],
            "delays_sha256": digest(state["delays"]),
            "nodes_sha256": digest(state["nodes"])}


def trace_sha256(directory):
    """sha256 of the JSONL trace of :data:`TRACE_CONFIG`."""
    path = pathlib.Path(directory) / "contact.jsonl"
    ContactSimulation(ContactSimConfig(trace_path=str(path),
                                       **TRACE_CONFIG)).run()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    goldens = {name: golden_entry(config)
               for name, config in golden_configs().items()}
    with tempfile.TemporaryDirectory() as tmp:
        goldens["trace_sha256"] = trace_sha256(tmp)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
