module Memory = Sim.Memory
module Program = Sim.Program

type t = {
  spec : Sim.Executor.spec;
  top : int;
  push_log : int option;
  pop_log : int option;
  ops_per_process : int;
  n : int;
}

type pop_result = Empty | Popped of int

let push_method = 0
let pop_method = 1

(* Node layout: [value; next]. *)

let push_op ~memory ~top value =
  let node = Memory.alloc memory ~size:2 in
  Program.write node value;
  let rec attempt () =
    let t = Program.read top in
    Program.write (node + 1) t;
    if not (Program.cas top ~expected:t ~value:node) then attempt ()
  in
  attempt ()

let pop_op ~top =
  let rec attempt () =
    let t = Program.read top in
    if t = 0 then Empty
    else
      let v = Program.read t in
      let next = Program.read (t + 1) in
      if Program.cas top ~expected:t ~value:next then Popped v else attempt ()
  in
  attempt ()

let unique_value ~n ~id ~op_index = (op_index * n) + id + 1

let make ?(push_ratio = 0.5) ~n () =
  if not (push_ratio >= 0. && push_ratio <= 1.) then
    invalid_arg "Treiber.make: push_ratio out of [0,1]";
  let memory = Memory.create () in
  let top = Memory.alloc memory ~size:1 in
  let program (ctx : Program.ctx) =
    let ops = ref 0 in
    let rec loop () =
      let m =
        if Stats.Rng.bernoulli ctx.rng push_ratio then begin
          push_op ~memory ~top (unique_value ~n ~id:ctx.id ~op_index:!ops);
          0
        end
        else begin
          ignore (pop_op ~top);
          1
        end
      in
      incr ops;
      Program.complete_method m;
      loop ()
    in
    loop ()
  in
  {
    spec = { name = "treiber-stack"; memory; program };
    top;
    push_log = None;
    pop_log = None;
    ops_per_process = 0;
    n;
  }

let make_logged ?(push_ratio = 0.5) ~n ~ops_per_process () =
  if ops_per_process <= 0 then invalid_arg "Treiber.make_logged: ops must be positive";
  let memory = Memory.create () in
  let top = Memory.alloc memory ~size:1 in
  (* Logs store 0 = unused, 1 = empty pop, v+2 = value v. *)
  let push_log = Memory.alloc memory ~size:(n * ops_per_process) in
  let pop_log = Memory.alloc memory ~size:(n * ops_per_process) in
  let program (ctx : Program.ctx) =
    for k = 0 to ops_per_process - 1 do
      if Stats.Rng.bernoulli ctx.rng push_ratio then begin
        let v = unique_value ~n ~id:ctx.id ~op_index:k in
        push_op ~memory ~top v;
        Program.write (push_log + (ctx.id * ops_per_process) + k) (v + 2)
      end
      else begin
        let r = pop_op ~top in
        let cell = match r with Empty -> 1 | Popped v -> v + 2 in
        Program.write (pop_log + (ctx.id * ops_per_process) + k) cell
      end;
      Program.complete ()
    done
  in
  {
    spec = { name = "treiber-stack-logged"; memory; program };
    top;
    push_log = Some push_log;
    pop_log = Some pop_log;
    ops_per_process;
    n;
  }

let drain t mem =
  let rec walk node acc =
    if node = 0 then List.rev acc
    else walk (Memory.get mem (node + 1)) (Memory.get mem node :: acc)
  in
  walk (Memory.get mem t.top) []

let read_log t mem base i =
  let out = ref [] in
  for k = t.ops_per_process - 1 downto 0 do
    let cell = Memory.get mem (base + (i * t.ops_per_process) + k) in
    if cell <> 0 then out := cell :: !out
  done;
  !out

let pushes t mem i =
  match t.push_log with
  | None -> invalid_arg "Treiber.pushes: not a logged stack"
  | Some base -> List.map (fun c -> c - 2) (read_log t mem base i)

let pops t mem i =
  match t.pop_log with
  | None -> invalid_arg "Treiber.pops: not a logged stack"
  | Some base ->
      List.map (fun c -> if c = 1 then Empty else Popped (c - 2)) (read_log t mem base i)
