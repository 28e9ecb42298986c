"""The demo platform substrate (Figure 1 of the paper).

Reproduces the behaviour of the four containerized components —
Datastore, API gateway (task builder / scheduler / status), Executor
(computational nodes), and the Web UI's request cycle — as local
components over the filesystem and a shared SparkSession.
"""
