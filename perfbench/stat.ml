(* Order statistics over samples; 0 when there are none, which is how a
   metric that does not apply to a workload reads. *)

module Cdf = Lt_util.Cdf

(* [q] in [0, 1], interpolated between order statistics. *)
let pct l q = match l with [] -> 0.0 | _ -> Cdf.quantile (Cdf.of_samples l) q
let median l = pct l 0.5
let mean l = match l with [] -> 0.0 | _ -> Cdf.mean (Cdf.of_samples l)
