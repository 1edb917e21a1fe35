"""Structural fingerprint of an executable model.

``model_topology`` walks a built (not yet run) model — tasks, Shared
Objects, hardware modules, port bindings, channels, processors, external
memory — and returns a plain-data description of the elaborated graph.
It is deliberately agnostic about *how* the model was built: the
topology-parity tests use it to show that a model elaborated from a
:class:`~repro.design.spec.DesignSpec` is the same machine as the seed
hand-built class it replaced.
"""

from __future__ import annotations


def _so_entry(shared_object) -> dict:
    behaviour = shared_object.behaviour
    entry = {
        "behaviour": type(behaviour).__name__,
        "policy": type(shared_object.policy).__name__,
        "num_clients": shared_object.num_clients,
        "clients": [client.name for client in shared_object._clients],
        "grant_overhead_fs": shared_object.grant_overhead.femtoseconds,
        "per_client_overhead_fs": shared_object.per_client_overhead.femtoseconds,
    }
    if hasattr(behaviour, "capacity"):
        entry["capacity"] = behaviour.capacity
    if hasattr(behaviour, "iq_streaming"):
        entry["iq_streaming"] = behaviour.iq_streaming
        entry["ram_seconds_per_word"] = behaviour.ram_seconds_per_word
        entry["port_setup_fs"] = behaviour.port_setup.femtoseconds
    return entry


def _binding_entry(port) -> dict:
    provider = port._provider
    entry = {"port": port.basename, "priority": port.priority}
    if provider is None:
        entry["binding"] = None
        return entry
    if hasattr(provider, "channel"):  # RmiClient transactor
        channel = provider.channel
        entry.update(
            binding="rmi",
            rmi=provider.name,
            channel=channel.name,
            channel_kind=type(channel).__name__,
            target=provider.socket.shared_object.name,
            chunk_words=provider.chunk_words,
            polling=provider.poll_interval is not None,
        )
    else:  # direct Application-Layer binding to the Shared Object
        entry.update(binding="direct", target=provider.name)
    return entry


def model_topology(model) -> dict:
    """The module/shared-object/channel graph of a built model."""
    topology: dict = {
        "version": model.version,
        "tasks": [
            {"name": task.name, "bindings": [_binding_entry(p) for p in task.ports]}
            for task in model.tasks
        ],
        "shared_objects": {},
        "modules": [],
    }
    for attr in ("shared_object", "params_so"):
        shared = getattr(model, attr, None)
        if shared is not None:
            topology["shared_objects"][shared.name] = _so_entry(shared)
    modules = []
    control = getattr(model, "control", None)
    if control is not None:
        modules.append(control)
    modules.extend(getattr(model, "filters", ()))
    for module in modules:
        entry = {
            "name": module.name,
            "kind": type(module).__name__,
            "bindings": [_binding_entry(p) for p in module.ports],
        }
        if hasattr(module, "mode"):
            entry["mode"] = module.mode
            entry["compute_time_scale"] = module.compute_time_scale
        topology["modules"].append(entry)
    opb = getattr(model, "opb", None)
    if opb is not None:
        topology["opb_masters"] = [master.name for master in opb.masters]
        topology["p2p_count"] = model._p2p_count
        topology["processors"] = [
            {"name": cpu.name, "tasks": [task.name for task in cpu.tasks]}
            for cpu in model.processors
        ]
        topology["ddr_masters"] = sorted(model._ddr_masters)
    return topology
