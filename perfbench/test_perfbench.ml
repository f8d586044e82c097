(* The benchmark's own tests: metric names and the BENCHMARK.json
   catalogue agree, tail percentiles need ten samples beyond them,
   failing checks raise failed_frac, and digests repeat. *)

open Perfbench

(* -- metric names ------------------------------------------------- *)

let test_names_valid () =
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " matches [A-Za-z0-9_.-]+") true (Metrics.valid_name name))
    (Metrics.end_to_end @ Metrics.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) (bad ^ " refused") false (Metrics.valid_name bad))
    [ ""; "wall s"; "a/b"; "_lead"; "x{y}"; String.make 65 'a' ];
  let names = List.map fst (Metrics.end_to_end @ Metrics.per_layer) in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let catalogue key =
  let json = Telemetry.Json.parse_exn (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) in
  let field k v = Option.get (Option.bind (Telemetry.Json.member k v) Telemetry.Json.to_str) in
  List.map
    (fun m -> (field "name" m, field "unit" m))
    (Option.get (Option.bind (Telemetry.Json.member key json) Telemetry.Json.to_list))

let test_names_match_benchmark_json () =
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" Metrics.end_to_end (catalogue "end_to_end");
  Alcotest.check pair "per_layer" Metrics.per_layer (catalogue "per_layer")

let test_select () =
  let ms = [ Metrics.m "setup_s" "s" 0.5; Metrics.m "wall_s" "s" 1. ] in
  let cat = [ ("wall_s", "s"); ("setup_s", "s") ] in
  Alcotest.(check (list string)) "catalogue order" [ "wall_s"; "setup_s" ]
    (List.map (fun (x : Metrics.t) -> x.name) (Metrics.select ~catalogue:cat ms));
  Alcotest.check_raises "missing metric" (Failure "metric not measured: setup_s") (fun () ->
      ignore (Metrics.select ~catalogue:cat [ Metrics.m "wall_s" "s" 1. ]));
  Alcotest.check_raises "non-finite metric" (Failure "metric wall_s is not finite (nan)")
    (fun () ->
      ignore (Metrics.select ~catalogue:[ ("wall_s", "s") ] [ Metrics.m "wall_s" "s" Float.nan ]))

(* -- order statistics --------------------------------------------- *)

let samples n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_needs_ten_beyond () =
  let refused p n = Result.is_error (Stat.tail ~p (samples n)) in
  Alcotest.(check bool) "p90 of 99 refused" true (refused 0.9 99);
  Alcotest.(check bool) "p90 of 100 given" false (refused 0.9 100);
  Alcotest.(check bool) "p99 of 999 refused" true (refused 0.99 999);
  Alcotest.(check bool) "p99 of 1000 given" false (refused 0.99 1000);
  Alcotest.(check bool) "no tail of 9 samples" true (Stat.highest_tail (samples 9) = None);
  Alcotest.(check (option (pair (float 0.) (float 1e-9)))) "highest of 1000 is p99"
    (Some (0.99, 990.01)) (Stat.highest_tail (samples 1000))

let test_quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Stat.quartiles (samples 10) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  Alcotest.(check (float 1e-12)) "median" 5.5 (Stat.median (samples 10))

(* -- failed_frac -------------------------------------------------- *)

let test_failing_check_counts () =
  let t = Tally.create () in
  Tally.unit_ t ~what:"passes" (fun () -> Ok ());
  Alcotest.(check (float 0.)) "no failure" 0. (Tally.failed_frac t);
  Tally.unit_ t ~what:"fails" (fun () -> Error "wrong output");
  Tally.unit_ t ~what:"raises" (fun () -> failwith "boom");
  Alcotest.(check (float 1e-12)) "two of three failed" (2. /. 3.) (Tally.failed_frac t);
  Alcotest.(check bool) "not correct" false (Tally.ok t)

let test_doctored_service_result_fails () =
  let cfg = Service.probe ~seed:1 in
  let r = Load.Engine.run cfg in
  let ok = Tally.create () in
  Service.check ok cfg r;
  Alcotest.(check (float 0.)) "real result passes" 0. (Tally.failed_frac ok);
  let first = List.hd r.shards in
  let doctored = { r with shards = { first with stopped_early = true } :: List.tl r.shards } in
  let bad = Tally.create () in
  Service.check bad cfg doctored;
  Alcotest.(check int) "stopped shard's requests fail" first.offered bad.failed;
  Alcotest.(check bool) "failed_frac raised" true (Tally.failed_frac bad > 0.)

let test_doctored_analysis_result_fails () =
  let c = Analysis.probe ~seed:1 in
  let o = Analysis.work c (Analysis.setup c) in
  let ok = Tally.create () in
  Analysis.check ok c o;
  Alcotest.(check int) "real result passes" 0 ok.failed;
  let bad = Tally.create () in
  Analysis.check bad c { o with stats = { o.stats with residual = 1e-3 } };
  Alcotest.(check int) "residual above tolerance fails" 1 bad.failed

(* -- digests ------------------------------------------------------ *)

let test_digests_repeat () =
  let twice name f =
    let t = Tally.create () in
    let a : Iter.t = f t and b : Iter.t = f t in
    Alcotest.(check string) (name ^ " digest repeats") a.digest b.digest;
    Alcotest.(check (float 0.)) (name ^ " minor words repeat") a.minor_words b.minor_words;
    Alcotest.(check int) (name ^ " passes its checks") 0 t.failed
  in
  twice "service" (Service.iteration (Service.probe ~seed:2));
  twice "verify" (Verify.iteration (Verify.probe ~seed:2));
  twice "analysis" (Analysis.iteration (Analysis.probe ~seed:2))

let test_traced_digest_matches () =
  let cfg = Service.probe ~seed:3 in
  let t = Tally.create () in
  let untraced = Service.iteration cfg t in
  ignore (Span.take ());
  Span.enabled := true;
  let traced, _ = Service.traced cfg t ~lookup:(fun _ -> 1.) in
  Span.enabled := false;
  Alcotest.(check string) "merge rebuilt outside the engine" untraced.digest traced.digest;
  let spans = Span.take () in
  Alcotest.(check int) "one span per shard" cfg.shards
    (List.length (List.filter (fun (s : Span.t) -> s.name = "load.run_shard") spans));
  let root = List.find (fun (s : Span.t) -> s.name = "workload") spans in
  Alcotest.(check bool) "spans cover the work" true (Span.cover spans root > 0.9)

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "names valid" `Quick test_names_valid;
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_names_match_benchmark_json;
          Alcotest.test_case "select" `Quick test_select;
        ] );
      ( "stat",
        [
          Alcotest.test_case "tail needs ten beyond" `Quick test_tail_needs_ten_beyond;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles_match_python;
        ] );
      ( "failed_frac",
        [
          Alcotest.test_case "failing check counts" `Quick test_failing_check_counts;
          Alcotest.test_case "doctored service result" `Quick test_doctored_service_result_fails;
          Alcotest.test_case "doctored analysis result" `Quick test_doctored_analysis_result_fails;
        ] );
      ( "digest",
        [
          Alcotest.test_case "repeats" `Quick test_digests_repeat;
          Alcotest.test_case "traced matches untraced" `Quick test_traced_digest_matches;
        ] );
    ]
