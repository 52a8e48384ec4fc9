"""The repository's benchmark: four homogeneous-round workloads measured from
outside the program, through its public entry points only.

``python -m bench.run`` measures; ``python -m bench.compare A/ B/`` judges two
sets of records.  See ``bench/README.md`` for the glossary and the
layer → metric → workload table.
"""
