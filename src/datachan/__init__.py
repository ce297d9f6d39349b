"""Behavioral simulator and analysis toolkit for a gigabit serializer channel.

Submodules:

- ``logic`` / ``netlist``: three-valued simulation of the one-hot ring
  serializer, its reset/enable protocol and wired line muxing
- ``golden`` / ``protocol``: functional reference model and protocol checks
- ``driver``: behavioral output stage and supply-current models
- ``measure`` / ``eye`` / ``spectrum`` / ``report``: measurement kernels
  and compliance evaluation
- ``stimulus`` / ``scenario`` / ``cli``: stimulus generation and runners
"""

__version__ = "0.1.0"

from .config import ChannelConfig
from .netlist import advance, build_channel

__all__ = ["ChannelConfig", "advance", "build_channel", "__version__"]
