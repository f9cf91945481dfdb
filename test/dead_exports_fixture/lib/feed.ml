let last = ref None
let publish topic = last := Some topic
let retained topic = match !last with Some t when t = topic -> Some t | _ -> None
