(** A characterised cell library for one process.

    Construction characterises every {!Gate_kind.t} once; lookups are then
    O(1).  The library also owns the discrete drive grid used when the
    continuous optimum must be snapped to implementable drives (the paper
    sizes continuously; snapping quantifies the cost of a real library). *)

type t

val make : ?kinds:Gate_kind.t list -> Pops_process.Tech.t -> t
(** [make tech] characterises [kinds] (default: {!Gate_kind.all}) in
    process [tech]. *)

val tech : t -> Pops_process.Tech.t

val find : t -> Gate_kind.t -> Cell.t
(** The LVT (nominal-speed) variant of a kind — the cell the sizing flow
    optimizes with.
    @raise Not_found if the kind was excluded at construction. *)

val find_vt : t -> Gate_kind.t -> Pops_process.Vt.t -> Cell.t
(** The given Vt variant of a kind.  [find_vt t kind Lvt == find t kind].
    @raise Not_found if the kind was excluded at construction. *)

val inverter : t -> Cell.t
(** The inverter cell, used pervasively by buffering code. *)

val drive_grid : t -> float array
(** Available discrete drives as multiples of [cmin]:
    [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]. *)

val snap_cin : t -> float -> float
(** [snap_cin lib cin] rounds an input capacitance up to the nearest grid
    drive (never down, so a met delay constraint stays met); values above
    the largest grid point are left unchanged (continuous beyond x64). *)
