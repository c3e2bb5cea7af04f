"""Host-to-CRFID downstream transfer simulator.

Builds messages from Intel Hex files, throttles the frame length against
channel quality, and replays the full host / reader / tag interaction over
a distance-parameterized lossy channel with transient tag power.
"""

__version__ = "0.1.0"
