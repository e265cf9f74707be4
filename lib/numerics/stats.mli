(** Descriptive statistics over float arrays.

    Used throughout the experiment harness: oscillation magnitude
    (mean and standard deviation of the initial tuning window, Table
    2), performance-distribution histograms (Figure 4), and the
    normalizations used by the sensitivity tool (Section 3). *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val variance : float array -> float
(** Sample variance (divides by [n-1]); [0.] for arrays of length < 2. *)

val stddev : float array -> float
(** Sample standard deviation. *)

val min : float array -> float
val max : float array -> float

val median : float array -> float
(** Median by sorting a copy. Requires a non-empty array. *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [0, 100], linear interpolation
    between order statistics. Requires a non-empty array. *)

val percentile_sorted : float array -> float -> float
(** {!percentile} over an array the caller has {e already sorted}
    ascending — no copy, no sort.  Sort once, read many percentiles.
    Requires a non-empty array; unspecified on unsorted input. *)

val sort_floatarray : ?len:int -> floatarray -> unit
(** In-place ascending heapsort of the first [len] cells (default:
    the whole array) — allocation-free, for scratch buffers reused
    across evaluations.  Values must not be NaN (total order by [<]).
    @raise Invalid_argument when [len] is outside [0, length]. *)

val percentile_sorted_floatarray : ?len:int -> floatarray -> float -> float
(** {!percentile_sorted} over the first [len] cells of a sorted
    floatarray.
    @raise Invalid_argument on an empty prefix or [p] outside
    [0, 100]. *)

val mad : float array -> float
(** Median absolute deviation, [median |x_i - median a|]: the robust
    dispersion estimate behind the measurement pipeline's outlier
    rejection (a reading is suspect when its distance to the median
    exceeds a multiple of the MAD).  Requires a non-empty array. *)

val normalize : float array -> float array
(** Affine rescaling onto [0, 1]; constant arrays map to all zeros. *)

val rescale : lo:float -> hi:float -> float array -> float array
(** Affine rescaling onto [lo, hi]; constant arrays map to all [lo]. *)

val histogram : buckets:int -> lo:float -> hi:float -> float array -> int array
(** [histogram ~buckets ~lo ~hi a] counts values into [buckets]
    equal-width buckets spanning [lo, hi]; values outside the span are
    clamped into the end buckets. *)

val histogram_fractions :
  buckets:int -> lo:float -> hi:float -> float array -> float array
(** Same as {!histogram} but as fractions of the total count. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient of two equal-length arrays; [0.]
    when either side is constant. *)

val chebyshev_distance : float array -> float array -> float
val squared_distance : float array -> float array -> float
(** Sum of squared coordinate differences, accumulated in index order
    without allocating per coordinate.
    @raise Invalid_argument on a length mismatch. *)

val euclidean_distance : float array -> float array -> float
(** [sqrt (squared_distance a b)]. *)
