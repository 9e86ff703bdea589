(** The benchmark harness's one timing rule: interleaved rounds after a
    warm-up, summarised by the median and the interquartile range. *)

type spread = { median : float; iqr : float }

(** Median of the samples (mean of the middle two for an even count);
    [nan] when there are none. *)
val median : float array -> float

(** [(q1, median, q3)], each interpolated linearly between the closest
    ranks; all [nan] when there are no samples. *)
val quartiles : float array -> float * float * float

(** Nearest-rank percentile, [p] in [0, 1]: the smallest sample with
    at least [p] of the samples at or below it; [nan] when there are
    none. *)
val percentile : float array -> float -> float

(** Median and [q3 - q1]. *)
val spread : float array -> spread

(** Wall-clock milliseconds of one call. *)
val wall_ms : (unit -> unit) -> float

(** One subject's named measures, one sample per round, in round
    order. *)
type runs = (string * float array) list

(** [interleave ~rounds subjects] compacts the heap, runs each subject
    once to warm up, then runs [rounds] (at least 1) rounds of every
    subject, round [r] starting at subject [r mod n]. A subject returns
    its named measures for the run; every run of a subject must return
    the same names. The result is each subject's runs, in the order
    given. *)
val interleave : rounds:int -> (unit -> (string * float) list) list -> runs list

(** @raise Not_found when the measure was not recorded. *)
val samples : runs -> string -> float array

(** Spread of one measure over the rounds. *)
val summary : runs -> string -> spread

(** [ratio a b name]: spread of [a]'s measure over [b]'s, paired round
    by round. *)
val ratio : runs -> runs -> string -> spread
