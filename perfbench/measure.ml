(* Clocks, order statistics, GC gauges and the result line. *)

(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* The [q]-quantile of a sample, interpolating linearly between order
   statistics; [nan] for an empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* GC gauges. *)
type gc = { minor_gcs : int; major_gcs : int; minor_words : float }

let gc () =
  let s = Gc.quick_stat () in
  { minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
    minor_words = s.Gc.minor_words }

let gc_diff a b =
  { minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
    minor_words = b.minor_words -. a.minor_words }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Reported metrics, in order of report. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* One human-readable line per metric. *)
let print_lines title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-40s %16.6f %s\n" m.name m.value m.unit_)
    metrics

(* The result object, as the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        if not (Float.is_finite m.value) then
          failwith (Printf.sprintf "metric %s is not a finite number" m.name);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
