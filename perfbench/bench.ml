(* The benchmark driver: one workload per invocation.

   Untraced (--trace 0): repeat the workload's fixed work until
   --seconds have passed (at least [min_iters] times), check every
   repetition's outputs and that its digest equals the first one's,
   and report medians of the end-to-end metrics.

   Traced (--trace 1): an untraced repetition, the layer probes, one
   repetition with a span around each layer call, a second untraced
   repetition (the two untraced ones are the overhead baseline), then a fixed-size run of each layer group the workload
   does not call, so every per-layer metric is measured on every
   workload.  Prints a self-time table per phase and writes the spans
   to .perfbench-out/. *)

type group = [ `Load | `Check | `Chains ]

type workload = {
  name : string;
  owns : group;
  iteration : seed:int -> Tally.t -> Iter.t;
  traced : seed:int -> Tally.t -> lookup:(string -> float) -> Iter.t * Metrics.t list;
}

let workloads =
  [
    {
      name = "service-closed";
      owns = `Load;
      iteration = (fun ~seed t -> Service.iteration (Service.closed ~seed) t);
      traced = (fun ~seed t ~lookup -> Service.traced (Service.closed ~seed) t ~lookup);
    };
    {
      name = "service-faulted";
      owns = `Load;
      iteration = (fun ~seed t -> Service.iteration (Service.faulted ~seed) t);
      traced = (fun ~seed t ~lookup -> Service.traced (Service.faulted ~seed) t ~lookup);
    };
    {
      name = "verify";
      owns = `Check;
      iteration = (fun ~seed t -> Verify.iteration (Verify.full ~seed) t);
      traced = (fun ~seed t ~lookup -> Verify.traced (Verify.full ~seed) t ~lookup);
    };
    {
      name = "analysis";
      owns = `Chains;
      iteration = (fun ~seed t -> Analysis.iteration (Analysis.full ~seed) t);
      traced = (fun ~seed t ~lookup -> Analysis.traced (Analysis.full ~seed) t ~lookup);
    };
  ]

let group_name = function `Load -> "load" | `Check -> "check" | `Chains -> "chains"

(* The fixed-size run of a group's owning workload. *)
let fallback (g : group) ~seed tally ~lookup =
  match g with
  | `Load -> snd (Service.traced (Service.probe ~seed) tally ~lookup)
  | `Check -> snd (Verify.traced (Verify.probe ~seed) tally ~lookup)
  | `Chains -> snd (Analysis.traced (Analysis.probe ~seed) tally ~lookup)

let min_iters = 3

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let print_detail (it : Iter.t) =
  print_endline "digest detail:";
  print_endline it.detail

let fmt_tail xs =
  match Stat.highest_tail xs with
  | Some (p, v) -> Printf.sprintf "p%g=%.6g" (100. *. p) v
  | None -> (
      match Stat.tail ~p:0.9 xs with Error e -> e | Ok v -> Printf.sprintf "p90=%.6g" v)

let untraced w ~seed ~seconds tally =
  let t_start = Iter.now () in
  (* The major heap's high-water mark after the first repetition: later
     ones only re-reach it, and how many run depends on the clock. *)
  let peak = ref 0. in
  let rec loop acc k =
    if k >= min_iters && Iter.now () -. t_start >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      match w.iteration ~seed tally with
      | it ->
          if k = 0 then peak := peak_heap_mb ();
          loop (it :: acc) (k + 1)
      | exception e ->
          Tally.unit_ tally ~what:(Printf.sprintf "iteration %d" (k + 1)) (fun () -> raise e);
          List.rev acc
    end
  in
  let its = loop [] 0 in
  if its = [] then failwith "no repetition of the workload completed";
  let first = List.hd its in
  Printf.printf "%-5s %12s %12s %14s %16s  %s\n" "iter" "setup_s" "wall_s" "minor_mwords"
    "promoted_mwords" "digest";
  List.iteri
    (fun i (it : Iter.t) ->
      Printf.printf "%-5d %12.6f %12.6f %14.6f %16.6f  %s\n" (i + 1) it.setup_s it.wall_s
        (it.minor_words /. 1e6) (it.promoted_words /. 1e6) it.digest;
      if i > 0 then
        Tally.unit_ tally ~what:(Printf.sprintf "digest of iteration %d" (i + 1)) (fun () ->
            if it.digest = first.digest then Ok ()
            else Error ("digest differs from the first iteration's " ^ first.digest)))
    its;
  let col f = List.map f its in
  let walls = col (fun it -> it.wall_s) in
  let minor = col (fun it -> it.minor_words) in
  Printf.printf "digest %s over %d iterations; minor words %s across them\n" first.digest
    (List.length its)
    (if List.for_all (fun x -> x = List.hd minor) minor then "identical" else "differ");
  print_detail first;
  let wall = Stat.median walls in
  let rate count =
    if count = 0 then None
    else Some (Stat.median (col (fun it -> float_of_int count /. it.sim_s)))
  in
  let metrics =
    Metrics.
      [
        m "wall_s" "s" wall;
        m "setup_s" "s" (Stat.median (col (fun it -> it.setup_s)));
        m "minor_mwords" "Mwords" (Stat.median minor /. 1e6);
        m "promoted_mwords" "Mwords" (Stat.median (col (fun it -> it.promoted_words)) /. 1e6);
        m "peak_heap_mb" "MB" !peak;
      ]
  in
  Printf.printf "%-18s %18s %-7s  %s\n" "metric" "value" "unit" "over iterations";
  List.iter
    (fun (x : Metrics.t) ->
      let samples =
        match x.name with
        | "wall_s" -> Some walls
        | "setup_s" -> Some (col (fun it -> it.setup_s))
        | _ -> None
      in
      let extra =
        match samples with
        | None -> ""
        | Some xs ->
            let q1, q3 = Stat.quartiles xs in
            Printf.sprintf "median of %d, q1=%.6g q3=%.6g spread=%.2f%%; %s" (List.length xs)
              q1 q3 (100. *. Stat.spread xs) (fmt_tail xs)
      in
      Printf.printf "%-18s %18.9g %-7s  %s\n" x.name x.value x.unit_ extra)
    metrics;
  (* Throughputs are the fixed work over time, so they move exactly
     with wall time; printed here, not in the result line. *)
  let show name v =
    Printf.printf "%-18s %18s %-7s  %s\n" name
      (match v with Some v -> Printf.sprintf "%.9g" v | None -> "n/a")
      "1/s" "(not in the result line)"
  in
  show "sim_steps_per_s" (rate first.sim_steps);
  show "requests_per_s"
    (if first.requests = 0 then None
     else Some (Stat.median (col (fun it -> float_of_int it.requests /. it.wall_s))));
  metrics

let traced_run w ~seed tally =
  Span.enabled := false;
  Gc.full_major ();
  let base = w.iteration ~seed tally in
  Span.enabled := true;
  Gc.full_major ();
  let probe_metrics = Probes.all ~seed tally in
  let probe_spans = Span.take () in
  let lookup name =
    match List.find_opt (fun (x : Metrics.t) -> x.name = name) probe_metrics with
    | Some x -> x.value
    | None -> invalid_arg ("no probe metric " ^ name)
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let it, own = w.traced ~seed tally ~lookup in
  let g1 = Gc.quick_stat () in
  let work_spans = Span.take () in
  (* A second untraced repetition after the traced one; the overhead
     baseline is the mean of the two around it. *)
  Span.enabled := false;
  Gc.full_major ();
  let base2 = w.iteration ~seed tally in
  let base_wall = (base.wall_s +. base2.wall_s) /. 2. in
  Span.enabled := true;
  Tally.unit_ tally ~what:"traced digest" (fun () ->
      if it.digest = base.digest then Ok ()
      else Error "the traced repetition's digest differs from the untraced one's");
  let fallbacks =
    List.filter_map
      (fun g ->
        if g = w.owns then None
        else
          let ms = Span.with_ ("fallback." ^ group_name g) (fun () -> fallback g ~seed tally ~lookup) in
          Some (g, ms, Span.take ()))
      [ `Load; `Check; `Chains ]
  in
  Span.enabled := false;
  let root = List.find (fun (s : Span.t) -> s.name = "workload") work_spans in
  let cover = Span.cover work_spans root in
  let run_metrics =
    Metrics.
      [
        m "gc.minor_collections" "count" (float_of_int (g1.minor_collections - g0.minor_collections));
        m "gc.major_collections" "count" (float_of_int (g1.major_collections - g0.major_collections));
        m "trace.overhead_frac" "ratio" ((it.wall_s /. base_wall) -. 1.);
        m "trace.span_cover_frac" "ratio" cover;
      ]
  in
  Printf.printf
    "traced wall_s %.6f, untraced %.6f and %.6f; spans cover %.2f%% of the traced wall time\n"
    it.wall_s base.wall_s base2.wall_s (100. *. cover);
  print_detail it;
  Span.print_self_table ~title:w.name work_spans;
  Span.print_self_table ~title:"layer probes" probe_spans;
  List.iter
    (fun (g, _, spans) ->
      Span.print_self_table ~title:(group_name g ^ " metrics at probe size") spans)
    fallbacks;
  let spans = work_spans @ probe_spans @ List.concat_map (fun (_, _, s) -> s) fallbacks in
  let dir = ".perfbench-out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Printf.sprintf "%s/%s-seed%d-spans.json" dir w.name seed in
  Span.write ~file spans;
  Printf.printf "spans: %s\n" file;
  (* Values of the groups measured at probe size are marked. *)
  let probed = List.concat_map (fun (_, ms, _) -> ms) fallbacks in
  let all = probe_metrics @ own @ probed @ run_metrics in
  let selected = Metrics.select ~catalogue:Metrics.per_layer all in
  Printf.printf "%-40s %18s %-6s\n" "per-layer metric" "value" "unit";
  List.iter
    (fun (x : Metrics.t) ->
      let note =
        if List.exists (fun (p : Metrics.t) -> p.name = x.name) probed then "  (probe size)"
        else if x.name = "load.engine.self_ns_per_request" then "  (estimate)"
        else ""
      in
      Printf.printf "%-40s %18.9g %-6s%s\n" x.name x.value x.unit_ note)
    selected;
  selected

let run ~workload ~seed ~seconds ~trace =
  match List.find_opt (fun w -> w.name = workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      2
  | Some w ->
      let tally = Tally.create () in
      Printf.printf "perfbench: workload %s, seed %d, %s, %g s\n%!" w.name seed
        (if trace then "traced" else "untraced")
        seconds;
      let metrics =
        if trace then traced_run w ~seed tally
        else Metrics.select ~catalogue:Metrics.end_to_end (untraced w ~seed ~seconds tally)
      in
      Printf.printf "failed_frac %.6g (%d of %d checked units failed)\n" (Tally.failed_frac tally)
        tally.failed tally.attempted;
      List.iter (fun n -> Printf.printf "  failure: %s\n" n) (List.rev tally.notes);
      print_endline
        (Metrics.result_line ~correct:(Tally.ok tally) ~attempted:tally.attempted
           ~failed:tally.failed metrics);
      0
