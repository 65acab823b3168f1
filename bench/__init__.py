"""Service-path wall-clock benchmark (see bench/README.md).

Drives ``repro.server.DirectoryService`` in-process, from outside: nothing
under ``src/`` knows this package exists.
"""
