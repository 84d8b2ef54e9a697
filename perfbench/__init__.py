"""Closed-loop benchmark of the wreathz lab; run it as `python3 perfbench/run.py`."""
