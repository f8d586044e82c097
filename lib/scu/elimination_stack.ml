module Memory = Sim.Memory
module Program = Sim.Program

type t = {
  spec : Sim.Executor.spec;
  top : int;
  slots : int array;
  eliminated : int;
  n : int;
}

let empty = 0
let taken = 1
let parked v = v + 2
let unpark c = c - 2

let push_op ?(on_park = fun ~slot:_ -> ()) ?(on_unpark = fun () -> ()) ~memory
    ~top ~slots ~poll (ctx : Program.ctx) v =
  let slot_count = Array.length slots in
  let node = Memory.alloc memory ~size:2 in
  Program.write node v;
  let push_stack () =
    let t = Program.read top in
    Program.write (node + 1) t;
    Program.cas top ~expected:t ~value:node
  in
  let try_park () =
    (* Returns true when the value was handed to a pop. *)
    let slot = slots.(Stats.Rng.int ctx.rng slot_count) in
    if not (Program.cas slot ~expected:empty ~value:(parked v)) then false
    else begin
      on_park ~slot;
      (* Reclaim the slot after the poll budget.  A failed reclaim CAS
         does not by itself prove a pop grabbed the value: under an
         LL/SC-style memory (the chaos layer's spurious-CAS fault
         mode) a CAS can fail with the slot untouched, so re-read and
         decide on the observed state — only [taken] means grabbed. *)
      let rec reclaim () =
        if Program.cas slot ~expected:(parked v) ~value:empty then begin
          on_unpark ();
          false
        end
        else if Program.read slot = taken then begin
          Program.write slot empty;
          true
        end
        else reclaim ()
      in
      let rec wait k =
        let c = Program.read slot in
        if c = taken then begin
          (* A pop grabbed it; release the slot. *)
          Program.write slot empty;
          true
        end
        else if k >= poll then reclaim ()
        else wait (k + 1)
      in
      wait 0
    end
  in
  let rec loop () =
    if push_stack () then ()
    else if try_park () then ()
    else loop ()
  in
  loop ()

let pop_op ?(on_grab = fun _ -> ()) ~top ~slots ~eliminated (ctx : Program.ctx)
    =
  let slot_count = Array.length slots in
  let try_grab () =
    let slot = slots.(Stats.Rng.int ctx.rng slot_count) in
    let c = Program.read slot in
    if c >= 2 && Program.cas slot ~expected:c ~value:taken then begin
      on_grab (unpark c);
      ignore (Program.faa eliminated 1);
      Some (unpark c)
    end
    else None
  in
  let rec attempt () =
    let t = Program.read top in
    if t = 0 then Treiber.Empty
    else
      let v = Program.read t in
      let next = Program.read (t + 1) in
      if Program.cas top ~expected:t ~value:next then Treiber.Popped v
      else
        match try_grab () with
        | Some v -> Treiber.Popped v
        | None -> attempt ()
  in
  attempt ()

let recover_push ~slot v =
  let rec settle () =
    if Program.cas slot ~expected:(parked v) ~value:empty then true
    else if Program.read slot = taken then begin
      (* Grabbed before the crash: the push linearized at the grab.
         Release the taken marker (only the parking pusher may). *)
      Program.write slot empty;
      false
    end
    else settle () (* spurious CAS failure; the value is still parked *)
  in
  settle ()

let make ?slots:(slot_count = 0) ?(poll = 4) ?(push_ratio = 0.5) ~n () =
  if not (push_ratio >= 0. && push_ratio <= 1.) then
    invalid_arg "Elimination_stack.make: push_ratio out of [0,1]";
  if poll < 1 then invalid_arg "Elimination_stack.make: poll must be >= 1";
  let slot_count = if slot_count <= 0 then max 1 (n / 4) else slot_count in
  let memory = Memory.create () in
  let top = Memory.alloc memory ~size:1 in
  let eliminated = Memory.alloc memory ~size:1 in
  let slots = Array.init slot_count (fun _ -> Memory.alloc memory ~size:1) in
  let program (ctx : Program.ctx) =
    let ops = ref 0 in
    let rec loop () =
      (if Stats.Rng.bernoulli ctx.rng push_ratio then
         let v = (!ops * n) + ctx.id + 1 in
         push_op ~memory ~top ~slots ~poll ctx v
       else ignore (pop_op ~top ~slots ~eliminated ctx));
      incr ops;
      Program.complete ();
      loop ()
    in
    loop ()
  in
  {
    spec =
      { name = Printf.sprintf "elimination-stack(k=%d)" slot_count; memory; program };
    top;
    slots;
    eliminated;
    n;
  }

let eliminated_pairs t mem = Memory.get mem t.eliminated

let drain t mem =
  let rec walk node acc =
    if node = 0 then List.rev acc
    else walk (Memory.get mem (node + 1)) (Memory.get mem node :: acc)
  in
  let stacked = walk (Memory.get mem t.top) [] in
  let in_slots =
    Array.to_list t.slots
    |> List.filter_map (fun s ->
           let c = Memory.get mem s in
           if c >= 2 then Some (unpark c) else None)
  in
  stacked @ in_slots
