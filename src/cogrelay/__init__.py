"""Dynamic hop selection and power control for cognitive multi-hop relays.

The package splits the problem along its two natural time scales: `subpolicy`
solves one continuous segment's hop/power control (offline value recursion
plus multiplier calibration, online decentralized decisions), `master`
allocates average power across all potential segments to maximize the minimum
section rate, `sim` runs the schemes, the proposed one and four references,
over Monte-Carlo epochs, and `oracle` verifies the structural claims by brute
force.  `cli` runs the one calibrate-then-simulate pipeline behind every
command and study point, over configuration files and CSV/JSON outputs.
"""

__version__ = "0.1.0"
