(* Machine-speed calibration for the wall-clock figures.

   On a shared machine other tenants change the speed the process runs at,
   by more than the regression bounds, for seconds to minutes at a time.
   The slow spells hit memory-bound work: in one, a tight arithmetic loop
   kept its speed while allocating code ran 1.6-1.9 times slower, and the
   program's calls slowed with it. Every wall figure is therefore scaled
   to a reference speed: a fixed piece of work, timed alongside the
   measurement, reads [reference_ns] on the reference machine (the 2-core
   VM the benchmark was built on, in a quiet spell), and a duration
   measured while it reads [k] ns is reported as
   [duration * reference_ns / k].

   The work is the benchmark's own code over the standard library only, so
   no change to the program can speed it up or slow it down. It is shaped
   like the program's own work, which allocates hundreds of thousands of
   words per call: it hashes 1,000 strings into a hash table and folds them
   into a balanced map, then allocates short-lived tuples, strings and
   lists through the rest of a minor heap, so each reading pays one minor
   collection of mostly dead data. Of the kernels tried (arithmetic, a
   random walk over a large array, a sequential pass over a 2 MB buffer,
   hashing alone, allocation alone), this mix followed the program's calls
   most closely through slow spells. A reading starts from an empty minor
   heap, so what it collects is its own. *)

let reference_ns = 1.7e6

module Names = Map.Make (String)

let work () =
  let table = Hashtbl.create 512 in
  for i = 0 to 999 do
    Hashtbl.replace table (string_of_int (i * 7919)) (i, [ i; i + 1 ])
  done;
  let names = Hashtbl.fold (fun k (v, l) acc -> Names.add k (v + List.length l) acc) table Names.empty in
  let acc = ref (Names.fold (fun _ v acc -> acc + v) names 0) in
  for i = 1 to 16_000 do
    let n, s, l = Sys.opaque_identity (i, string_of_int i, [ i; i + 1; i + 2; i + 3 ]) in
    acc := !acc + n + String.length s + List.length l
  done;
  !acc

(* One reading, in ns. *)
let sample () =
  Gc.minor ();
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (work ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* The factor a duration measured alongside [readings] is multiplied by:
   their median against the reference. *)
let factor readings =
  let readings = if Samples.length readings = 0 then Samples.of_list [ sample () ] else readings in
  reference_ns /. Samples.percentile readings 0.5
