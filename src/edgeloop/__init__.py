"""Deterministic event-driven testbed for cloud-edge industrial control.

A synthetic boiler plant is closed-loop controlled over a simulated
network, either by a value-learning agent served from edge nodes or by a
tuned PID baseline, with module placement decided by an assignment solver.
"""
