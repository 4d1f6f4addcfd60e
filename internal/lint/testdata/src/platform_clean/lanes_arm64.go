package platform_clean

const lanes = 4
