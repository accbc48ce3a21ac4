type t = Lvt | Svt | Hvt

let count = 3
let all = [| Lvt; Svt; Hvt |]
let to_int = function Lvt -> 0 | Svt -> 1 | Hvt -> 2

let of_int = function
  | 0 -> Lvt
  | 1 -> Svt
  | 2 -> Hvt
  | n -> invalid_arg (Printf.sprintf "Vt.of_int: %d" n)

let name = function Lvt -> "lvt" | Svt -> "svt" | Hvt -> "hvt"

let next = function Lvt -> Some Svt | Svt -> Some Hvt | Hvt -> None
