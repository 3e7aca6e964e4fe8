"""Test-only harnesses: fault, crash, network-fault and concurrency adversaries.

The chaos, concurrency, gateway and durability suites drive the guard
through these.  They reach the program only through its plain seams
(``_daemon_loop(fault=None)``, ``SubprocessPTIDaemon._fault_hook``,
``JournalWriter(opener=None)``, ``write_checkpoint(opener=None,
replace=None)``), and nothing under ``src/`` imports them.
"""
