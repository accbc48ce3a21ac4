module Library = Pops_cell.Library

type wire = { r_total : float; c_total : float }

let wire_of_length ?(r_per_mm = 0.075) ?(c_per_mm = 200.) len_mm =
  if len_mm <= 0. then invalid_arg "Repeaters.wire_of_length";
  { r_total = r_per_mm *. len_mm; c_total = c_per_mm *. len_mm }

(* Effective driver resistance of an inverter of input capacitance [cin]:
   calibrated so that with zero wire resistance the Elmore stage delay
   matches the analytic model's stage delay (average edge, nominal
   coupling).  kOhm * fF = ps, so r_drv = k_drv / cin with k_drv in ps. *)
let k_drv lib =
  let inv = Library.inverter lib in
  let tech = Library.tech lib in
  let s_avg = 0.5 *. (inv.Pops_cell.Cell.s_hl +. inv.Pops_cell.Cell.s_lh) in
  1.1 *. s_avg *. tech.Pops_process.Tech.tau /. 2.

let stage_delay ~lib ~cin ~r_seg ~c_seg ~next_cin =
  let inv = Library.inverter lib in
  let r_drv = k_drv lib /. cin in
  let cpar = Pops_cell.Cell.cpar inv ~cin in
  (r_drv *. (cpar +. c_seg +. next_cin)) +. (r_seg *. ((c_seg /. 2.) +. next_cin))

let unrepeated_delay ~lib wire ~driver_cin ~cload =
  stage_delay ~lib ~cin:driver_cin ~r_seg:wire.r_total ~c_seg:wire.c_total
    ~next_cin:cload

let default_driver_cin lib = 8. *. (Library.tech lib).Pops_process.Tech.cmin

let delay_of ?driver_cin ~lib wire ~cload ~segments ~repeater_cin =
  if segments < 1 then invalid_arg "Repeaters.delay_of: segments < 1";
  let driver_cin = match driver_cin with Some c -> c | None -> default_driver_cin lib in
  let n = float_of_int segments in
  let r_seg = wire.r_total /. n and c_seg = wire.c_total /. n in
  (* the fixed upstream gate pays for the first repeater's input *)
  let total = ref (stage_delay ~lib ~cin:driver_cin ~r_seg:0. ~c_seg:0. ~next_cin:repeater_cin) in
  for i = 1 to segments do
    let next = if i = segments then cload else repeater_cin in
    total := !total +. stage_delay ~lib ~cin:repeater_cin ~r_seg ~c_seg ~next_cin:next
  done;
  !total

type solution = {
  segments : int;
  repeater_cin : float;
  delay : float;
  area : float;
}

let optimize ?(max_segments = 40) ?driver_cin ~lib wire ~cload =
  let tech = Library.tech lib in
  let cmin = tech.Pops_process.Tech.cmin in
  let inv = Library.inverter lib in
  let best = ref None in
  for segments = 1 to max_segments do
    let cin, delay =
      Golden.section_min ~tol:1e-3
        ~f:(fun cin -> delay_of ?driver_cin ~lib wire ~cload ~segments ~repeater_cin:cin)
        ~lo:cmin ~hi:(4096. *. cmin) ()
    in
    let candidate =
      {
        segments;
        repeater_cin = cin;
        delay;
        area = float_of_int segments *. Pops_cell.Cell.area inv ~cin;
      }
    in
    match !best with
    | Some b when b.delay <= candidate.delay -> ()
    | Some _ | None -> best := Some candidate
  done;
  match !best with Some b -> b | None -> assert false
