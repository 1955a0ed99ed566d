"""cosetx: coset complexes of truncated-polynomial matrix groups.

Groups SL_{n+1}(F_p[t]/<t^s>) and their unitriangular-type subgroups K_i,
the simplicial coset complexes they span, Steinberg-style presentations,
root-system propagation, non-Abelian 1-cohomology and expansion constants,
and spectra of weighted link walks.
"""

__version__ = "0.1.0"

# the one kernel backend, named in perfbench's run record
kernel_backend = "pure"
