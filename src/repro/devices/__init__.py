"""Device substrate: heterogeneous clusters, generators, churn dynamics."""

from .dynamics import ChurnConfig, ChurnEvent, network_churn
from .generator import DeviceNetworkParams, generate_device_network
from .network import Device, DeviceNetwork

__all__ = [
    "Device",
    "DeviceNetwork",
    "DeviceNetworkParams",
    "generate_device_network",
    "ChurnConfig",
    "ChurnEvent",
    "network_churn",
]
