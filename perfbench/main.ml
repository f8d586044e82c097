(* perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1
   Normally started by perfbench/run.py, which builds it first. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the untraced run measures");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  exit
    (Perfbench.Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds
       ~trace:(!trace = 1))
