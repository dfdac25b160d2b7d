"""Electronic wormhole mesh substrate (the paper's comparison network)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "compiled_network": ("CompiledMeshNetwork",),
    "fast_network": ("FastMeshNetwork",),
    "flit": ("Flit", "Packet"),
    "flowtiming": ("MeshFlowTiming", "run_mesh_fft2d_flow"),
    "network": (
        "MESH_ENGINES", "MeshConfig", "MeshFaultConfig", "MeshFaultReport", "MeshNetwork",
        "MeshStats", "SinkRecord", "mesh_signature", "packet_id_base",
    ),
    "overlap": ("MeshOverlapResult", "run_mesh_model2_overlap"),
    "routing": (
        "MinimalAdaptiveRouting", "RoutingPolicy", "TorusShortestRouting", "XYRouting",
        "fault_aware_route", "productive_ports",
    ),
    "topology": ("MeshTopology", "Port", "TorusTopology"),
    "vc_network": ("VcMeshConfig", "VcMeshNetwork", "VcMeshStats"),
    "workloads": (
        "TransposeWorkload", "make_scatter_delivery", "make_transpose_gather",
        "make_transpose_gather_multi_mc", "make_uniform_random",
    ),
})
