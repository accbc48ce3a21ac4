(* A per-domain stack of diagnostic collectors.  Boundary entry points
   install a collector around the work; anything below emits into the
   innermost frame without threading an accumulator through every
   signature.  Emission with no collector installed is a no-op, so the
   plain (exception-based) entry points cost one DLS read per emission
   and nothing else.

   Frames are domain-local: a pool task on a worker domain does NOT see
   the submitting domain's collector.  Contained fan-outs
   (Pops_util.Pool.map_list_contained) install a frame around each task
   and ship the collected diagnostics back with the slot result, so the
   caller can re-emit them in deterministic submission order. *)

type frame = Diag.t list ref

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let emit d =
  match !(Domain.DLS.get stack_key) with
  | [] -> ()
  | frame :: _ -> frame := d :: !frame

let emit_all ds = List.iter emit ds

let collect f =
  let stack = Domain.DLS.get stack_key in
  let frame : frame = ref [] in
  stack := frame :: !stack;
  let pop () =
    match !stack with
    | top :: rest when top == frame -> stack := rest
    | _ ->
      (* a nested collect leaked its frame: drop down to ours *)
      stack := List.filter (fun fr -> fr != frame) !stack
  in
  Fun.protect ~finally:pop (fun () ->
      let v = f () in
      (v, List.rev !frame))
