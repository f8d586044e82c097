module Memory = Sim.Memory
module Program = Sim.Program

type t = {
  spec : Sim.Executor.spec;
  head : int;
  tail : int;
  enq_log : int option;
  deq_log : int option;
  ops_per_process : int;
  n : int;
}

type deq_result = Empty | Dequeued of int

let enqueue_method = 0
let dequeue_method = 1

let enqueue_op ?on_linearize ~memory ~tail value =
  let node = Memory.alloc memory ~size:2 in
  Program.write node value;
  let rec attempt () =
    let t = Program.read tail in
    let next = Program.read (t + 1) in
    if next <> 0 then begin
      (* Tail is lagging: help swing it, then retry. *)
      ignore (Program.cas tail ~expected:t ~value:next);
      attempt ()
    end
    else if Program.cas (t + 1) ~expected:0 ~value:node then begin
      (* Linked — the enqueue just linearized.  The callback runs in
         the same atomic stretch as the successful CAS, before the
         process can next be suspended (and so before any crash can
         separate the two). *)
      Option.iter (fun f -> f ()) on_linearize;
      (* Swing the tail (failure is fine — someone helped). *)
      ignore (Program.cas tail ~expected:t ~value:node)
    end
    else attempt ()
  in
  attempt ()

let dequeue_op ~head ~tail =
  let rec attempt () =
    let h = Program.read head in
    let t = Program.read tail in
    let next = Program.read (h + 1) in
    if h = t then
      if next = 0 then Empty
      else begin
        ignore (Program.cas tail ~expected:t ~value:next);
        attempt ()
      end
    else
      let v = Program.read next in
      if Program.cas head ~expected:h ~value:next then Dequeued v else attempt ()
  in
  attempt ()

let unique_value ~n ~id ~op_index = (op_index * n) + id + 1

let build ?(enqueue_ratio = 0.5) ~n ~logged ~ops_per_process () =
  if not (enqueue_ratio >= 0. && enqueue_ratio <= 1.) then
    invalid_arg "Msqueue: enqueue_ratio out of [0,1]";
  let memory = Memory.create () in
  let sentinel = Memory.alloc memory ~size:2 in
  let head = Memory.alloc_init memory [| sentinel |] in
  let tail = Memory.alloc_init memory [| sentinel |] in
  let logs =
    if logged then
      Some
        ( Memory.alloc memory ~size:(n * ops_per_process),
          Memory.alloc memory ~size:(n * ops_per_process) )
    else None
  in
  let one_op (ctx : Program.ctx) k =
    let m =
      if Stats.Rng.bernoulli ctx.rng enqueue_ratio then begin
        let v = unique_value ~n ~id:ctx.id ~op_index:k in
        enqueue_op ~memory ~tail v;
        Option.iter
          (fun (enq, _) -> Program.write (enq + (ctx.id * ops_per_process) + k) (v + 2))
          logs;
        0
      end
      else begin
        let r = dequeue_op ~head ~tail in
        Option.iter
          (fun (_, deq) ->
            let cell = match r with Empty -> 1 | Dequeued v -> v + 2 in
            Program.write (deq + (ctx.id * ops_per_process) + k) cell)
          logs;
        1
      end
    in
    Program.complete_method m
  in
  let program (ctx : Program.ctx) =
    if logged then
      for k = 0 to ops_per_process - 1 do
        one_op ctx k
      done
    else begin
      let k = ref 0 in
      let rec loop () =
        one_op ctx !k;
        incr k;
        loop ()
      in
      loop ()
    end
  in
  {
    spec = { name = (if logged then "ms-queue-logged" else "ms-queue"); memory; program };
    head;
    tail;
    enq_log = Option.map fst logs;
    deq_log = Option.map snd logs;
    ops_per_process;
    n;
  }

let make ?enqueue_ratio ~n () = build ?enqueue_ratio ~n ~logged:false ~ops_per_process:0 ()

let make_logged ?enqueue_ratio ~n ~ops_per_process () =
  if ops_per_process <= 0 then invalid_arg "Msqueue.make_logged: ops must be positive";
  build ?enqueue_ratio ~n ~logged:true ~ops_per_process ()

let contents t mem =
  (* The first real element hangs off the current sentinel. *)
  let rec walk node acc =
    if node = 0 then List.rev acc
    else walk (Memory.get mem (node + 1)) (Memory.get mem node :: acc)
  in
  walk (Memory.get mem (Memory.get mem t.head + 1)) []

let read_log t mem base i =
  let out = ref [] in
  for k = t.ops_per_process - 1 downto 0 do
    let cell = Memory.get mem (base + (i * t.ops_per_process) + k) in
    if cell <> 0 then out := cell :: !out
  done;
  !out

let enqueues t mem i =
  match t.enq_log with
  | None -> invalid_arg "Msqueue.enqueues: not a logged queue"
  | Some base -> List.map (fun c -> c - 2) (read_log t mem base i)

let dequeues t mem i =
  match t.deq_log with
  | None -> invalid_arg "Msqueue.dequeues: not a logged queue"
  | Some base ->
      List.map (fun c -> if c = 1 then Empty else Dequeued (c - 2)) (read_log t mem base i)
