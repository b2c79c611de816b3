"""Size limits of every route that grows with n, in one place.

A row maps each bound k that its routine takes to the largest size it
takes; a bound outside the key set is refused.  At k <= 2 the 256 and 511
are the seed's CLI contracts, not storage limits, as are SWEEP_N, checked
at every k before the sweep's row, and the slope top of 1000; the catalog
and exact census limits are the package's original ones.  Every other
limit is the largest size (SLOPE_K: bound) measured to finish in 60 s and
1 GB at one thread, README "Size caps" giving each measurement.
"""

SP_CENSUS_N = {0: 256, 1: 256, 2: 256, 3: 137, 4: 28, 5: 13, 6: 10}
SWEEP_N = 16  # sp exminors and gamma pk at every k
SP_EXMINORS_N = {1: 16, 2: 16, 3: 16, 4: 9}
STRATA_N = {0: 511, 1: 511, 2: 511, 3: 431, 4: 69, 5: 27, 6: 17}
# half-size t; at k = 2 the bottom equation has no variables, so any t is instant
SK_EXMINORS_T = {2: None, 3: 850, 4: 23, 5: 17, 6: 17, 7: 17}
# the last t of a range from t = 6; from k = 5 the strata limits are lower
GAMMA_SK_T = {3: 155, 4: 22}
SLOPE_K = 17  # either source, over a range to SLOPE_TOP
SLOPE_TOP = 1000
CATALOG_N = 14
CATALOG_K = 6
EXACT_N = 12
